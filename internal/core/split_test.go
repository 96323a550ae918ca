package core

import (
	"math"
	"testing"
	"testing/quick"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

// elongatedGroup builds a 2k-record group stretched along direction (1, 0):
// x spread is large, y spread is small.
func elongatedGroup(t *testing.T, seed uint64, k int) *stats.Group {
	t.Helper()
	r := rng.New(seed)
	g := stats.NewGroup(2)
	for i := 0; i < 2*k; i++ {
		x := mat.Vector{r.Uniform(-10, 10), r.Uniform(-1, 1)}
		if err := g.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestSplitGroupCounts(t *testing.T) {
	g := elongatedGroup(t, 1, 10)
	m1, m2, err := splitGroupWith(g, 10, SplitPrincipal, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m1.N() != 10 || m2.N() != 10 {
		t.Errorf("child sizes %d, %d, want 10, 10", m1.N(), m2.N())
	}
}

func TestSplitGroupCentroids(t *testing.T) {
	g := elongatedGroup(t, 2, 15)
	eig, err := g.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	parent, err := g.Mean()
	if err != nil {
		t.Fatal(err)
	}
	lambda1 := eig.Values[0]
	e1 := eig.Vector(0)
	offset := math.Sqrt(12*lambda1) / 4

	m1, m2, err := splitGroupWith(g, 15, SplitPrincipal, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := m1.Mean()
	c2, _ := m2.Mean()

	want1 := parent.Clone().AddScaled(-offset, e1)
	want2 := parent.Clone().AddScaled(+offset, e1)
	if !c1.Equal(want1, 1e-9) {
		t.Errorf("child 1 centroid %v, want %v", c1, want1)
	}
	if !c2.Equal(want2, 1e-9) {
		t.Errorf("child 2 centroid %v, want %v", c2, want2)
	}
	// The midpoint of the child centroids is the parent centroid.
	mid := c1.Add(c2).Scale(0.5)
	if !mid.Equal(parent, 1e-9) {
		t.Errorf("children midpoint %v, want parent %v", mid, parent)
	}
}

func TestSplitGroupEigenvalueQuartered(t *testing.T) {
	g := elongatedGroup(t, 3, 12)
	parentEig, err := g.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	m1, _, err := splitGroupWith(g, 12, SplitPrincipal, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	childEig, err := m1.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	// λ₁(M1) = λ₁(M)/4; the second eigenvalue is unchanged. Because
	// λ₁/4 may drop below λ₂, compare sorted multisets.
	wantVals := []float64{parentEig.Values[0] / 4, parentEig.Values[1]}
	if wantVals[0] < wantVals[1] {
		wantVals[0], wantVals[1] = wantVals[1], wantVals[0]
	}
	for i := range wantVals {
		if math.Abs(childEig.Values[i]-wantVals[i]) > 1e-8*(1+wantVals[i]) {
			t.Errorf("child eigenvalue %d = %g, want %g", i, childEig.Values[i], wantVals[i])
		}
	}
}

func TestSplitGroupEigenvectorsPreserved(t *testing.T) {
	g := elongatedGroup(t, 4, 12)
	parentEig, err := g.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	m1, m2, err := splitGroupWith(g, 12, SplitPrincipal, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, child := range map[string]*stats.Group{"m1": m1, "m2": m2} {
		childEig, err := child.Eigen()
		if err != nil {
			t.Fatal(err)
		}
		// Both children share the parent's eigenvectors (up to sign and
		// reordering): every child eigenvector must be (anti)parallel to
		// some parent eigenvector.
		for j := 0; j < childEig.Dim(); j++ {
			v := childEig.Vector(j)
			bestAlign := 0.0
			for p := 0; p < parentEig.Dim(); p++ {
				if a := math.Abs(v.Dot(parentEig.Vector(p))); a > bestAlign {
					bestAlign = a
				}
			}
			if bestAlign < 1-1e-7 {
				t.Errorf("%s eigenvector %d not aligned with any parent eigenvector (best %g)", name, j, bestAlign)
			}
		}
	}
}

func TestSplitGroupChildrenShareCovariance(t *testing.T) {
	g := elongatedGroup(t, 5, 9)
	m1, m2, err := splitGroupWith(g, 9, SplitPrincipal, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := m1.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m2.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	if !c1.Equal(c2, 1e-8*(1+c1.FrobeniusNorm())) {
		t.Error("children have different covariance matrices")
	}
}

// The paper notes Sc values differ between the children even though the
// covariances are identical, because the first-order sums differ.
func TestSplitGroupSecondOrderSumsDiffer(t *testing.T) {
	g := elongatedGroup(t, 6, 9)
	m1, m2, err := splitGroupWith(g, 9, SplitPrincipal, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m1.SecondOrderSums().Equal(m2.SecondOrderSums(), 1e-12) {
		t.Error("children have identical Sc, expected different")
	}
}

func TestSplitGroupMergeRecoversParentMean(t *testing.T) {
	g := elongatedGroup(t, 7, 11)
	parentMean, _ := g.Mean()
	m1, m2, err := splitGroupWith(g, 11, SplitPrincipal, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged := m1.Clone()
	if err := merged.Merge(m2); err != nil {
		t.Fatal(err)
	}
	if merged.N() != g.N() {
		t.Errorf("merged N = %d, want %d", merged.N(), g.N())
	}
	mergedMean, _ := merged.Mean()
	if !mergedMean.Equal(parentMean, 1e-9) {
		t.Errorf("merged mean %v, want %v", mergedMean, parentMean)
	}
}

func TestSplitGroupZeroVariance(t *testing.T) {
	// All records identical: λ₁ = 0, the split offset is 0, and both
	// children coincide with the parent point mass.
	g := stats.NewGroup(2)
	for i := 0; i < 8; i++ {
		if err := g.Add(mat.Vector{3, -2}); err != nil {
			t.Fatal(err)
		}
	}
	m1, m2, err := splitGroupWith(g, 4, SplitPrincipal, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := m1.Mean()
	c2, _ := m2.Mean()
	if !c1.Equal(mat.Vector{3, -2}, 1e-10) || !c2.Equal(mat.Vector{3, -2}, 1e-10) {
		t.Errorf("zero-variance split centroids %v, %v", c1, c2)
	}
}

func TestSplitGroupOneDimensional(t *testing.T) {
	g := stats.NewGroup(1)
	for i := 0; i < 6; i++ {
		if err := g.Add(mat.Vector{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	m1, m2, err := splitGroupWith(g, 3, SplitPrincipal, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := m1.Mean()
	c2, _ := m2.Mean()
	if c1[0] >= c2[0] {
		t.Errorf("1-D split not ordered: %g, %g", c1[0], c2[0])
	}
}

func TestSplitGroupErrors(t *testing.T) {
	g := elongatedGroup(t, 8, 5)
	if _, _, err := splitGroupWith(g, 4, SplitPrincipal, nil, nil); err == nil {
		t.Error("n != 2k accepted")
	}
	if _, _, err := splitGroupWith(g, 0, SplitPrincipal, nil, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := splitGroupWith(g, 5, SplitRandom, nil, nil); err == nil {
		t.Error("SplitRandom without source accepted")
	}
	if _, _, err := splitGroupWith(g, 5, SplitAxis(7), nil, nil); err == nil {
		t.Error("unknown axis accepted")
	}
}

func TestSplitGroupRandomAxis(t *testing.T) {
	g := elongatedGroup(t, 9, 10)
	m1, m2, err := splitGroupWith(g, 10, SplitRandom, rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m1.N() != 10 || m2.N() != 10 {
		t.Errorf("random-axis child sizes %d, %d", m1.N(), m2.N())
	}
	merged := m1.Clone()
	if err := merged.Merge(m2); err != nil {
		t.Fatal(err)
	}
	parentMean, _ := g.Mean()
	mergedMean, _ := merged.Mean()
	if !mergedMean.Equal(parentMean, 1e-9) {
		t.Error("random-axis split does not preserve the parent mean")
	}
}

// Property: for random elongated groups, the split children's covariance
// trace equals the parent trace minus 3λ_split/4 (only the split
// eigenvalue changes, from λ to λ/4).
func TestSplitGroupTraceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := 3 + r.IntN(10)
		g := stats.NewGroup(3)
		for i := 0; i < 2*k; i++ {
			if err := g.Add(mat.Vector{r.Uniform(-5, 5), r.Norm(), r.Uniform(0, 2)}); err != nil {
				return false
			}
		}
		pc, err := g.Covariance()
		if err != nil {
			return false
		}
		pe, err := g.Eigen()
		if err != nil {
			return false
		}
		m1, _, err := splitGroupWith(g, k, SplitPrincipal, nil, nil)
		if err != nil {
			return false
		}
		cc, err := m1.Covariance()
		if err != nil {
			return false
		}
		want := pc.Trace() - 3*pe.Values[0]/4
		return math.Abs(cc.Trace()-want) <= 1e-7*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCoreSplitGroup(b *testing.B) {
	r := rng.New(6)
	g := stats.NewGroup(34)
	x := make(mat.Vector, 34)
	for i := 0; i < 50; i++ {
		for j := range x {
			x[j] = r.Norm()
		}
		if err := g.Add(x); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := splitGroupWith(g, 25, SplitPrincipal, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
