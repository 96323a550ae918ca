package kernel

import (
	"math/rand/v2"
	"testing"
)

func benchArena(rows, dim int) ([]float64, []float64) {
	r := rand.New(rand.NewPCG(21, 22))
	flat := make([]float64, rows*dim)
	for i := range flat {
		flat[i] = r.NormFloat64()
	}
	q := make([]float64, dim)
	for i := range q {
		q[i] = r.NormFloat64()
	}
	return flat, q
}

// BenchmarkKernelNearestK is one static-condensation neighbour search at
// the anonymize workload's scale: k = 25 nearest of 50k rows at d = 8.
func BenchmarkKernelNearestK(b *testing.B) {
	const rows, k = 50000, 25
	flat, q := benchArena(rows, 8)
	ids := make([]int, rows)
	for i := range ids {
		ids[i] = i
	}
	heap := make([]Neighbor, 0, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heap = NearestK(heap[:0], q, flat, ids, 0, k)
	}
}

func BenchmarkKernelArgminFlat(b *testing.B) {
	flat, q := benchArena(800, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ArgminFlat(q, flat)
	}
}
