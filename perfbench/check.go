package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"condensation/internal/core"
)

// momentTol bounds the relative rounding error between the engine's
// pooled group moments and the running sums of the acknowledged records,
// relative to the sum of absolute terms. The Eq. 3 split conserves the
// pooled first and second moments exactly in real arithmetic; measured
// float64 error is around 1e-13.
const momentTol = 1e-9

// checkState fetches /v1/checkpoint, parses it with core.ReadCondensation
// and checks the paper's invariants against what was acknowledged: every
// group holds k..2k−1 records, the counts add up to the records
// acknowledged, and the pooled first- and second-order sums equal the
// running sums of those records within momentTol. It returns one message
// per violated check.
func checkState(c *conn, acked moments) ([]string, error) {
	rep, err := c.do(http.MethodGet, "/v1/checkpoint", nil, nil)
	if err != nil {
		return nil, err
	}
	if rep.status != http.StatusOK {
		return []string{fmt.Sprintf("final GET /v1/checkpoint: status %d", rep.status)}, nil
	}
	cond, err := core.ReadCondensation(bytes.NewReader(rep.body))
	if err != nil {
		return []string{fmt.Sprintf("final checkpoint does not parse: %v", err)}, nil
	}
	return checkCondensation(cond, serveK, acked), nil
}

func checkCondensation(cond *core.Condensation, k int, acked moments) []string {
	var problems []string
	if cond.K() != k {
		problems = append(problems, fmt.Sprintf("checkpoint k = %d, want %d", cond.K(), k))
	}
	dim := len(acked.fs)
	if cond.Dim() != dim {
		return append(problems, fmt.Sprintf("checkpoint dim = %d, want %d", cond.Dim(), dim))
	}
	got := newMoments(dim)
	bad := 0
	for _, g := range cond.Groups() {
		n := g.N()
		if n < k || n > 2*k-1 {
			bad++
		}
		got.n += n
		fs, sc := g.FirstOrderSums(), g.SecondOrderSums()
		for i := 0; i < dim; i++ {
			got.fs[i] += fs[i]
			for j := 0; j < dim; j++ {
				got.sc[i*dim+j] += sc.At(i, j)
			}
		}
	}
	if bad > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d groups outside [k, 2k−1] = [%d, %d]", bad, cond.NumGroups(), k, 2*k-1))
	}
	if got.n != acked.n {
		problems = append(problems, fmt.Sprintf("checkpoint holds %d records, %d were acknowledged", got.n, acked.n))
	}
	worst := 0.0
	for i := range got.fs {
		worst = math.Max(worst, relErr(got.fs[i], acked.fs[i], acked.fa[i]))
	}
	for i := range got.sc {
		worst = math.Max(worst, relErr(got.sc[i], acked.sc[i], acked.mag[i]))
	}
	if !(worst <= momentTol) {
		problems = append(problems, fmt.Sprintf("pooled moments differ from the acknowledged records' sums by %.3g (relative), bound %g", worst, momentTol))
	}
	return problems
}

func relErr(got, want, scale float64) float64 {
	if scale == 0 {
		scale = 1
	}
	return math.Abs(got-want) / scale
}

// snapshotRows validates a /v1/snapshot body without building the
// records in memory: it must be {"records":[[d numbers],...],"groups":G,
// "k":K} with every value a finite number. It returns the row count, which
// the caller compares with the engine's record count.
func snapshotRows(body []byte, dim int) (rows int, err error) {
	p := body
	expect := func(tok string) bool {
		if !bytes.HasPrefix(p, []byte(tok)) {
			return false
		}
		p = p[len(tok):]
		return true
	}
	if !expect(`{"records":[`) {
		return 0, errors.New("snapshot: missing records array")
	}
	for len(p) > 0 && p[0] != ']' {
		if rows > 0 && !expect(",") {
			return rows, fmt.Errorf("snapshot: row %d: missing separator", rows)
		}
		if !expect("[") {
			return rows, fmt.Errorf("snapshot: row %d: not an array", rows)
		}
		for j := 0; j < dim; j++ {
			if j > 0 && !expect(",") {
				return rows, fmt.Errorf("snapshot: row %d has %d values, want %d", rows, j, dim)
			}
			n := finiteNumber(p)
			if n == 0 {
				return rows, fmt.Errorf("snapshot: row %d value %d is not a finite number", rows, j)
			}
			p = p[n:]
		}
		if !expect("]") {
			return rows, fmt.Errorf("snapshot: row %d has more than %d values", rows, dim)
		}
		rows++
	}
	if !expect(`],"groups":`) {
		return rows, errors.New("snapshot: missing groups field")
	}
	if !bytes.Contains(p, []byte(`"k":`+strconv.Itoa(serveK)+"}")) {
		return rows, fmt.Errorf("snapshot: missing k=%d", serveK)
	}
	return rows, nil
}

// finiteNumber returns the length of the JSON number at the start of b
// when it denotes a finite float64, and 0 otherwise. A number without an
// exponent and with a short integer part is finite by its syntax; the
// rest are parsed.
func finiteNumber(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := func() int {
		s := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i - s
	}
	intDigits := digits()
	if intDigits == 0 || (intDigits > 1 && b[i-intDigits] == '0') {
		return 0
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return 0
		}
	}
	exp := i < len(b) && (b[i] == 'e' || b[i] == 'E')
	if exp {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return 0
		}
	}
	if exp || intDigits > 300 {
		v, err := strconv.ParseFloat(string(b[:i]), 64)
		if err != nil || math.IsInf(v, 0) {
			return 0
		}
	}
	return i
}
