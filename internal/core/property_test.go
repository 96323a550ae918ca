package core

import (
	"bytes"
	"context"
	"math"
	"testing"
	"testing/quick"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

// randomRecords draws n records in d dimensions with mixed scales.
func randomRecords(r *rng.Source, n, d int) []mat.Vector {
	out := make([]mat.Vector, n)
	for i := range out {
		x := make(mat.Vector, d)
		for j := range x {
			switch j % 3 {
			case 0:
				x[j] = r.Norm()
			case 1:
				x[j] = r.Uniform(-10, 10)
			default:
				x[j] = r.Exp(0.5)
			}
		}
		out[i] = x
	}
	return out
}

// Property: static condensation always covers every record exactly once
// and meets the indistinguishability level whenever the data allows it.
func TestStaticInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(120)
		d := 1 + r.IntN(5)
		k := 1 + r.IntN(15)
		recs := randomRecords(r, n, d)
		cond, err := condenseStatic(recs, k, r.Split(), Options{})
		if err != nil {
			return false
		}
		if cond.TotalCount() != n {
			return false
		}
		wantMin := k
		if n < k {
			wantMin = n // a single undersized group is the only option
		}
		return cond.MinGroupSize() >= wantMin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: dynamic maintenance never lets a group reach 2k and never
// loses a record, for arbitrary streams.
func TestDynamicInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		d := 1 + r.IntN(4)
		k := 1 + r.IntN(10)
		streamLen := 1 + r.IntN(200)
		dyn, err := newDynamicEmpty(d, k, Options{}, r.Split())
		if err != nil {
			return false
		}
		for i := 0; i < streamLen; i++ {
			x := randomRecords(r, 1, d)[0]
			if err := dyn.Add(x); err != nil {
				return false
			}
		}
		snap := dyn.Condensation()
		if snap.TotalCount() != streamLen {
			return false
		}
		for _, g := range snap.Groups() {
			if g.N() >= 2*k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: under arbitrary interleavings of Add and AddBatchContext —
// random batch sizes — a single-shard engine bootstrapped from a static
// condensation keeps every group inside the paper's steady-state band
// k ≤ n(G) ≤ 2k−1 and never loses a record. (Splits interleave
// implicitly: any group reaching 2k is split on the spot, which is what
// makes the upper bound tight.) One long stream at k = 2 grows past
// dynamicIndexCutoff groups, so the invariant is also checked across the
// scan → kd-index promotion.
func TestDynamicInterleavingInvariantProperty(t *testing.T) {
	// check runs one random interleaving and returns the engine, or nil
	// if an invariant broke.
	check := func(seed uint64, long bool) *Sharded {
		r := rng.New(seed)
		d := 1 + r.IntN(4)
		k := 2 + r.IntN(8)
		ops := 12
		if long {
			k, ops = 2, 60
		}
		base := randomRecords(r, k+r.IntN(4*k), d)
		cond, err := condenseStatic(base, k, r.Split(), Options{})
		if err != nil {
			return nil
		}
		c, err := NewCondenser(k, WithRandomSource(r.Split()))
		if err != nil {
			return nil
		}
		dyn, err := c.ShardedFrom(cond, 1)
		if err != nil {
			return nil
		}
		total := len(base)
		for op := 0; op < ops; op++ {
			if r.Bool(0.5) {
				x := randomRecords(r, 1, d)[0]
				if err := dyn.Add(x); err != nil {
					return nil
				}
				total++
			} else {
				batch := randomRecords(r, r.IntN(60), d)
				if err := dyn.AddBatchContext(context.Background(), batch); err != nil {
					return nil
				}
				total += len(batch)
			}
		}
		if dyn.TotalCount() != total {
			return nil
		}
		for _, g := range dyn.Condensation().Groups() {
			if g.N() < k || g.N() > 2*k-1 {
				return nil
			}
		}
		return dyn
	}
	f := func(seed uint64) bool { return check(seed, false) != nil }
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	dyn := check(1, true)
	if dyn == nil {
		t.Fatal("long k = 2 interleaving broke an invariant")
	}
	router := dyn.shards[0].dyn.router
	if _, isKD := router.(*kdRouter); !isKD {
		t.Fatalf("long interleaving ended on the %s router with %d groups, want the kd-index",
			router.label(), dyn.NumGroups())
	}
}

// Property: moment conservation at stream level. Under random
// interleavings of Add and AddBatchContext on a sharded engine — 1 to 4
// shards, streams long enough to split many times — the pooled
// first-order sums Σ Fs, second-order sums Σ Sc, and record count n over
// all groups equal the running sums of the ingested records. Eq. 3's split preserves a group's pooled first and second
// moments, so the only slack is floating-point rounding: each entry must
// agree within 1e-9 relative to the sum of its terms' magnitudes. One
// long stream at k = 2 on two shards grows each shard past
// dynamicIndexCutoff groups, so conservation is also checked across the
// scan → kd-index promotion.
func TestShardedMomentConservationProperty(t *testing.T) {
	const tol = 1e-9
	// check runs one random interleaving and returns the engine, or nil
	// if conservation broke.
	check := func(seed uint64, long bool) *Sharded {
		r := rng.New(seed)
		d := 1 + r.IntN(4)
		k := 2 + r.IntN(6)
		shards := 1 + r.IntN(4)
		ops := 20
		if long {
			k, shards, ops = 2, 2, 60
		}
		c, err := NewCondenser(k, WithSeed(r.Uint64()))
		if err != nil {
			return nil
		}
		eng, err := c.Sharded(d, shards)
		if err != nil {
			return nil
		}
		fs, fsAbs := make([]float64, d), make([]float64, d)
		sc, scAbs := make([]float64, d*d), make([]float64, d*d)
		n := 0
		absorb := func(x mat.Vector) {
			for i := range x {
				fs[i] += x[i]
				fsAbs[i] += math.Abs(x[i])
				for j := range x {
					sc[i*d+j] += x[i] * x[j]
					scAbs[i*d+j] += math.Abs(x[i] * x[j])
				}
			}
			n++
		}
		for op := 0; op < ops; op++ {
			if r.Bool(0.3) {
				x := randomRecords(r, 1, d)[0]
				if err := eng.Add(x); err != nil {
					return nil
				}
				absorb(x)
				continue
			}
			batch := randomRecords(r, r.IntN(120), d)
			if err := eng.AddBatchContext(context.Background(), batch); err != nil {
				return nil
			}
			for _, x := range batch {
				absorb(x)
			}
		}
		gotFs, gotSc := make([]float64, d), make([]float64, d*d)
		gotN := 0
		for _, g := range eng.Condensation().Groups() {
			gotN += g.N()
			gfs, gsc := g.FirstOrderSums(), g.SecondOrderSums()
			for i := 0; i < d; i++ {
				gotFs[i] += gfs[i]
				for j := 0; j < d; j++ {
					gotSc[i*d+j] += gsc.At(i, j)
				}
			}
		}
		if gotN != n || eng.TotalCount() != n {
			t.Logf("seed %d: pooled n = %d, engine %d, ingested %d", seed, gotN, eng.TotalCount(), n)
			return nil
		}
		for i := range fs {
			if math.Abs(gotFs[i]-fs[i]) > tol*fsAbs[i] {
				t.Logf("seed %d: Σ Fs[%d] = %g, running sum %g", seed, i, gotFs[i], fs[i])
				return nil
			}
		}
		for i := range sc {
			if math.Abs(gotSc[i]-sc[i]) > tol*scAbs[i] {
				t.Logf("seed %d: Σ Sc[%d] = %g, running sum %g", seed, i, gotSc[i], sc[i])
				return nil
			}
		}
		return eng
	}
	f := func(seed uint64) bool { return check(seed, false) != nil }
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	eng := check(1, true)
	if eng == nil {
		t.Fatal("long k = 2 stream broke moment conservation")
	}
	for i, sh := range eng.shards {
		if _, isKD := sh.dyn.router.(*kdRouter); !isKD {
			t.Errorf("long stream: shard %d ended on the %s router with %d groups, want the kd-index",
				i, sh.dyn.router.label(), sh.dyn.NumGroups())
		}
	}
}

// Property: synthesized data preserves each group's mean within the
// standard error implied by the group's own spread, and the global moment
// sums are finite and of the right cardinality.
func TestSynthesisGroupMeanProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 30 + r.IntN(80)
		d := 1 + r.IntN(4)
		k := 5 + r.IntN(10)
		recs := randomRecords(r, n, d)
		cond, err := condenseStatic(recs, k, r.Split(), Options{})
		if err != nil {
			return false
		}
		grouped, err := cond.SynthesizeGrouped(r.Split())
		if err != nil {
			return false
		}
		for gi, g := range cond.Groups() {
			mean, err := g.Mean()
			if err != nil {
				return false
			}
			eig, err := g.Eigen()
			if err != nil {
				return false
			}
			synthMean := mat.NewVector(g.Dim())
			for _, x := range grouped[gi] {
				synthMean.AddScaled(1, x)
			}
			synthMean = synthMean.Scale(1 / float64(len(grouped[gi])))
			// The synthesized mean deviates by at most a few standard
			// errors; use a generous 6·σ/√n bound along the total spread.
			spread := math.Sqrt(eig.Values.Sum())
			bound := 6*spread/math.Sqrt(float64(g.N())) + 1e-9
			if synthMean.Dist(mean) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: splitting any 2k group preserves the total first-order sums
// exactly (mass balance) regardless of geometry.
func TestSplitMassBalanceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		d := 1 + r.IntN(5)
		k := 1 + r.IntN(12)
		g := stats.NewGroup(d)
		for _, x := range randomRecords(r, 2*k, d) {
			if err := g.Add(x); err != nil {
				return false
			}
		}
		m1, m2, err := splitGroupWith(g, k, SplitPrincipal, nil, nil)
		if err != nil {
			return false
		}
		total := m1.FirstOrderSums().Add(m2.FirstOrderSums())
		want := g.FirstOrderSums()
		scale := 1 + want.Norm()
		return total.Sub(want).Norm() <= 1e-8*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a checkpoint round trip is the identity on group structure for
// arbitrary condensations.
func TestPersistRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.IntN(60)
		d := 1 + r.IntN(4)
		k := 1 + r.IntN(8)
		recs := randomRecords(r, n, d)
		cond, err := condenseStatic(recs, k, r.Split(), Options{})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := cond.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadCondensation(&buf)
		if err != nil {
			return false
		}
		if got.NumGroups() != cond.NumGroups() || got.TotalCount() != cond.TotalCount() {
			return false
		}
		og, gg := cond.Groups(), got.Groups()
		for i := range og {
			if !og[i].FirstOrderSums().Equal(gg[i].FirstOrderSums(), 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
