package core

import (
	"errors"
	"fmt"
	"math"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

// splitGroupWith implements SplitGroupStatistics (Figure 3 of the paper): it
// splits the statistics of a group M holding 2k records into two child
// groups M1, M2 of k records each, without access to any raw records.
//
// Under the paper's locally-uniform model, the group is treated as
// uniformly distributed along each eigenvector of its covariance matrix
// C(M) = P Λ Pᵀ. Along the split eigenvector e (eigenvalue λ) the uniform
// range is a = √(12λ); cutting that range at its midpoint yields two
// uniform halves whose means sit at ±a/4 from the parent centroid and
// whose variance is λ/4 (Figure 4). Hence:
//
//	centroid(M1,2) = Y(M) ∓ (√(12λ)/4)·e
//	λ(M1,2)        = λ/4 along e; all other eigenpairs unchanged
//	C(M1) = C(M2)  = P Λ' Pᵀ
//	Sc_ij(Mi)      = k·C_ij(Mi) + Fs_i(Mi)·Fs_j(Mi)/k     (Equation 3)
//
// axis selects the split eigenvector: the principal one (the paper's
// choice — the most elongated direction, minimizing child variance) or a
// uniformly random one (ablation). The random source is only consulted for
// SplitRandom. The eigensolver workspaces come from s (nil allocates
// locally): the dynamic engine passes its per-engine scratch so the
// steady stream of split eigensolves reuses one set of buffers.
func splitGroupWith(m *stats.Group, k int, axis SplitAxis, r *rng.Source, s *mat.EigenScratch) (m1, m2 *stats.Group, err error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("core: split with k = %d", k)
	}
	if m.N() != 2*k {
		return nil, nil, fmt.Errorf("core: split of group with %d records, want exactly 2k = %d", m.N(), 2*k)
	}
	eig, err := m.EigenWith(s)
	if err != nil {
		return nil, nil, err
	}
	centroid, err := m.Mean()
	if err != nil {
		return nil, nil, err
	}

	splitIdx := 0 // eigenvalues are sorted descending, so 0 is principal
	switch axis {
	case SplitPrincipal:
	case SplitRandom:
		if r == nil {
			return nil, nil, errors.New("core: SplitRandom requires a random source")
		}
		splitIdx = r.IntN(eig.Dim())
	default:
		return nil, nil, fmt.Errorf("core: unknown split axis %d", int(axis))
	}

	lambda := eig.Values[splitIdx]
	e := eig.Vector(splitIdx)
	offset := math.Sqrt(12*lambda) / 4

	// Child covariance: divide the split eigenvalue by 4, keep the rest.
	childValues := eig.Values.Clone()
	childValues[splitIdx] = lambda / 4
	childCov := mat.Eigen{Values: childValues, Vectors: eig.Vectors}.Reconstruct().Symmetrize()

	build := func(sign float64) (*stats.Group, error) {
		c := centroid.Clone().AddScaled(sign*offset, e)
		fs := c.Scale(float64(k)) // Fs = k · centroid
		kf := float64(k)
		sc := mat.New(m.Dim(), m.Dim())
		for i := 0; i < m.Dim(); i++ {
			for j := 0; j < m.Dim(); j++ {
				// Equation 3: Sc_ij = k·C_ij + Fs_i·Fs_j/k.
				sc.Set(i, j, kf*childCov.At(i, j)+fs[i]*fs[j]/kf)
			}
		}
		return stats.FromMoments(k, fs, sc)
	}

	if m1, err = build(-1); err != nil {
		return nil, nil, fmt.Errorf("core: building first child: %w", err)
	}
	if m2, err = build(+1); err != nil {
		return nil, nil, fmt.Errorf("core: building second child: %w", err)
	}
	return m1, m2, nil
}
