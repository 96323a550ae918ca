package core

import (
	"fmt"
	"runtime"
)

// NeighborSearch selects how nearest neighbours are found: by the static
// construction for the k−1 nearest not-yet-grouped records of each
// sampled seed, and by the dynamic engine for the nearest group centroid.
// All backends are exact, with ties broken by ascending record (or group)
// index, so every backend forms identical groups.
type NeighborSearch int

const (
	// SearchAuto is the default. Static construction runs the distance
	// scan fused with a bounded top-k heap of the k nearest, the sweep
	// parallelized for large remaining sets; dynamic routing scans
	// centroids and promotes to the kd-index once the group count
	// reaches dynamicIndexCutoff.
	SearchAuto NeighborSearch = iota
	// SearchScanSort pins the distance scan: statically the same
	// bounded top-k scan as SearchAuto, dynamically the centroid scan
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

// parallelSweepCutoff is the remaining-set size below which the static
// nearest-k sweep stays single-threaded: under ~8k distances the goroutine
// fan-out costs more than it saves.
const parallelSweepCutoff = 8192
