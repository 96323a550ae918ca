package core

import (
	"fmt"
	"runtime"
	"sync"

	"condensation/internal/kernel"
)

// NeighborSearch selects how nearest neighbours are found: by the static
// construction for the k−1 nearest not-yet-grouped records of each
// sampled seed, and by the dynamic engine for the nearest group centroid.
// All backends are exact, with ties broken by ascending record (or group)
// index, so every backend forms identical groups.
type NeighborSearch int

const (
	// SearchAuto is the default. Static construction runs the distance
	// scan with a quickselect of the k nearest, the sweep parallelized
	// for large remaining sets; dynamic routing scans centroids and
	// promotes to the kd-index once the group count reaches
	// dynamicIndexCutoff.
	SearchAuto NeighborSearch = iota
	// SearchScanSort pins the distance scan: statically the same
	// quickselect scan as SearchAuto, dynamically the centroid scan
	// without kd promotion.
	SearchScanSort
	// SearchKDTree answers every query from a kd-tree: statically one
	// with tombstone deletion and periodic rebuild, dynamically the
	// maintained centroid index from the first group on. It wins on
	// large, low-intrinsic-dimension data and loses on isotropic data
	// of moderate dimension.
	SearchKDTree
)

// String returns the search-backend name.
func (s NeighborSearch) String() string {
	switch s {
	case SearchAuto:
		return "auto"
	case SearchScanSort:
		return "scan-sort"
	case SearchKDTree:
		return "kdtree"
	default:
		return fmt.Sprintf("NeighborSearch(%d)", int(s))
	}
}

// ParseNeighborSearch converts a backend name (as printed by String) back
// to the enum, for command-line flags.
func ParseNeighborSearch(name string) (NeighborSearch, error) {
	switch name {
	case "auto":
		return SearchAuto, nil
	case "scan-sort":
		return SearchScanSort, nil
	case "kdtree":
		return SearchKDTree, nil
	default:
		return 0, fmt.Errorf("core: unknown neighbour search %q", name)
	}
}

func (s NeighborSearch) validate() error {
	switch s {
	case SearchAuto, SearchScanSort, SearchKDTree:
		return nil
	default:
		return fmt.Errorf("core: unknown neighbour search %d", int(s))
	}
}

// searchConfig carries the performance knobs of the static construction.
// They deliberately live outside Options: they never change the condensed
// statistics (up to distance ties), only how fast they are computed, so
// they are not part of the persisted condensation state.
type searchConfig struct {
	// Search selects the neighbour-search backend (default SearchAuto).
	Search NeighborSearch
	// Parallelism bounds the worker goroutines of the distance sweep;
	// values < 1 mean runtime.NumCPU().
	Parallelism int
}

func (c searchConfig) validate() error { return c.Search.validate() }

// workers resolves the effective worker count.
func (c searchConfig) workers() int {
	if c.Parallelism < 1 {
		return runtime.NumCPU()
	}
	return c.Parallelism
}

// parallelSweepCutoff is the remaining-set size below which the distance
// sweep stays single-threaded: under ~8k distances the goroutine fan-out
// costs more than it saves.
const parallelSweepCutoff = 8192

// sweepArena fills dist[i] with the squared distance from seed to row i
// of the flat coordinate arena, chunked across at most `workers`
// goroutines when the sweep is large enough to amortize the fan-out. Each
// worker writes a disjoint range, so the result is identical to the
// serial kernel sweep — which is itself bit-identical to the gathered
// scalar loop it replaced (kernel package contract).
func sweepArena(dist []float64, seed []float64, arena []float64, dim, workers int) {
	n := len(dist)
	if workers <= 1 || n < parallelSweepCutoff {
		kernel.Sweep(dist, seed, arena[:n*dim])
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			kernel.Sweep(dist[lo:hi], seed, arena[lo*dim:hi*dim])
		}(lo, hi)
	}
	wg.Wait()
}

// selectNearest arranges order so that its first k entries are the k
// positions with the smallest (dist, alive index) keys, in ascending
// order. order must hold a permutation of [0, len(dist)) on entry.
//
// The reduction is kernel.TopK: deterministic median-of-three quickselect
// (expected O(n), no randomness drawn, so it never perturbs the caller's
// rng stream) followed by a sort of only the selected k entries, under
// the lexicographic (distance, record index) order every backend shares.
func selectNearest(order []int, dist []float64, alive []int, k int) {
	kernel.TopK(order, dist, alive, k)
}
