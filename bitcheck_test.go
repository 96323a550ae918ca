package condensation

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"condensation/internal/core"
	"condensation/internal/rng"
)

// TestBitcheckFingerprint prints a fingerprint of the full default
// pipeline: static condensation, dynamic ingest through Add and AddBatch
// and through Add alone, and seeded synthesis. Run at two commits, the
// logged hashes must match byte for byte.
func TestBitcheckFingerprint(t *testing.T) {
	const dim, k, G = 8, 25, 300
	full := benchStreamCorr(14, G*k+10000, dim)
	base, err := core.Static(full[:G*k], k, rng.New(12), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashCond := func(c *core.Condensation) {
		for _, g := range c.Groups() {
			b, err := g.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		fmt.Fprintf(h, "|")
	}
	hashCond(base)

	// Two passes of the default engine over the same records: Add ×2000
	// then AddBatch in 1,024-record chunks (the pool's tail that fills no
	// chunk is dropped), and a pure Add loop over exactly those records.
	// Both hash into the fingerprint, so it also pins Add ≡ AddBatch.
	pool := full[G*k:]
	fed := pool[:2000+(len(pool)-2000)/1024*1024]
	for _, batched := range []bool{true, false} {
		c, err := core.NewCondenser(k, core.WithRandomSource(rng.New(13)))
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := c.DynamicFrom(base)
		if err != nil {
			t.Fatal(err)
		}
		singles := fed
		if batched {
			singles = fed[:2000]
		}
		for _, x := range singles {
			if err := dyn.Add(x); err != nil {
				t.Fatal(err)
			}
		}
		for lo := len(singles); lo < len(fed); lo += 1024 {
			if err := dyn.AddBatch(fed[lo : lo+1024]); err != nil {
				t.Fatal(err)
			}
		}
		hashCond(dyn.Condensation())
	}

	groups, err := base.SynthesizeGrouped(rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	for _, pts := range groups {
		for _, x := range pts {
			for _, v := range x {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	t.Logf("pipeline fingerprint: %x", h.Sum(nil))
}
