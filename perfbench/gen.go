package main

import (
	"bytes"
	"strconv"

	"condensation/internal/dataset"
	"condensation/internal/mat"
	"condensation/internal/rng"
)

// factorStream draws records from a rank-3 factor model x = μ + Az + 0.1ε
// with z ∈ R³: records live near a 3-dimensional subspace of R^dim, the
// correlated regime the paper's eigenvector-based condensation targets.
// The loadings A come from a fixed seed, so every workload seed draws
// records from the same distribution and seeds differ only in the
// sample; the cost of condensing a sample then depends on the code, not
// on which distribution the seed picked.
type factorStream struct {
	r    *rng.Source
	dim  int
	mean mat.Vector
	a    []float64 // dim×3 loadings, row-major
}

const (
	intrinsicDim = 3
	loadingSeed  = 2004
)

// newFactorStream draws the loadings from shape and the records from r.
func newFactorStream(shape, r *rng.Source, dim int, mean mat.Vector) *factorStream {
	a := make([]float64, dim*intrinsicDim)
	for i := range a {
		a[i] = shape.Norm()
	}
	if mean == nil {
		mean = make(mat.Vector, dim)
	}
	return &factorStream{r: r, dim: dim, mean: mean, a: a}
}

func (f *factorStream) next() mat.Vector {
	var z [intrinsicDim]float64
	for j := range z {
		z[j] = f.r.Norm()
	}
	x := make(mat.Vector, f.dim)
	for j := range x {
		s := f.mean[j] + 0.1*f.r.Norm()
		for l, zv := range z {
			s += f.a[j*intrinsicDim+l] * zv
		}
		x[j] = s
	}
	return x
}

// batch is one pre-encoded POST /v1/records body together with the
// moments of the records it carries, so the correctness gate can compare
// the engine's pooled sums with what was acknowledged.
type batch struct {
	body []byte
	mom  moments
}

// moments are the running first- and second-order sums of a record set,
// plus the sums of absolute products that scale the rounding bound.
type moments struct {
	n   int
	fs  []float64 // Σ x
	sc  []float64 // Σ x xᵀ, row-major dim×dim
	mag []float64 // Σ |x_i x_j|, row-major dim×dim
	fa  []float64 // Σ |x_i|
}

func newMoments(dim int) moments {
	return moments{
		fs: make([]float64, dim), sc: make([]float64, dim*dim),
		mag: make([]float64, dim*dim), fa: make([]float64, dim),
	}
}

func (m *moments) add(x mat.Vector) {
	d := len(x)
	m.n++
	for i, xi := range x {
		m.fs[i] += xi
		if xi < 0 {
			m.fa[i] -= xi
		} else {
			m.fa[i] += xi
		}
		for j, xj := range x {
			p := xi * xj
			m.sc[i*d+j] += p
			if p < 0 {
				p = -p
			}
			m.mag[i*d+j] += p
		}
	}
}

func (m *moments) merge(o moments) {
	m.n += o.n
	for i := range m.fs {
		m.fs[i] += o.fs[i]
		m.fa[i] += o.fa[i]
	}
	for i := range m.sc {
		m.sc[i] += o.sc[i]
		m.mag[i] += o.mag[i]
	}
}

// encodeBatches pre-encodes n records from the stream into bodies of size
// records each (the last may be shorter), the wire form condenserd
// accepts. Encoding happens in set-up so the timed phase spends no client
// CPU on JSON.
func encodeBatches(f *factorStream, n, size int) []batch {
	out := make([]batch, 0, (n+size-1)/size)
	var buf []byte
	for n > 0 {
		m := size
		if n < m {
			m = n
		}
		mom := newMoments(f.dim)
		buf = append(buf[:0], `{"records":[`...)
		for i := 0; i < m; i++ {
			x := f.next()
			mom.add(x)
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			for j, v := range x {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
			}
			buf = append(buf, ']')
		}
		buf = append(buf, "]}"...)
		out = append(out, batch{body: append([]byte(nil), buf...), mom: mom})
		n -= m
	}
	return out
}

// twoClassTable builds the anonymize workload's input: rows from two
// classes, each its own rank-3 factor model with its own loadings and a
// shifted mean, so per-class condensation sees two distinct correlated
// clouds. It returns the table encoded as the CSV that condense reads.
func twoClassTable(seed uint64, rows, dim int) ([]byte, error) {
	shape := rng.New(loadingSeed)
	shift := make(mat.Vector, dim)
	for j := range shift {
		shift[j] = 1.5 * shape.Norm()
	}
	r := rng.New(seed)
	classes := []*factorStream{
		newFactorStream(shape, r.Split(), dim, nil),
		newFactorStream(shape, r.Split(), dim, shift),
	}
	ds := &dataset.Dataset{Name: "perfbench", Task: dataset.Classification}
	for j := 0; j < dim; j++ {
		ds.Attrs = append(ds.Attrs, "a"+strconv.Itoa(j))
	}
	for i := 0; i < rows; i++ {
		c := 0
		if r.Bool(0.45) {
			c = 1
		}
		ds.X = append(ds.X, classes[c].next())
		ds.Labels = append(ds.Labels, c)
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, ds); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
