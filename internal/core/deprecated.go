package core

import "fmt"

// NeighborSearch and IndexPrecision are one-value option types. The
// engine has a single exact neighbour search (the fused sweep + bounded
// top-k statically; the centroid scan, promoted to the kd-index at
// dynamicIndexCutoff groups, dynamically) and float64 routing, so neither
// selects anything. Both remain only so callers that spell out those
// defaults — the perfbench module passes WithNeighborSearch(SearchAuto)
// and WithIndexPrecision(Float64) — keep compiling; NewCondenser rejects
// any other value.

// NeighborSearch names the neighbour search.
//
// Deprecated: SearchAuto is the only search; drop WithNeighborSearch.
type NeighborSearch int

// SearchAuto is the only neighbour search.
//
// Deprecated: see NeighborSearch.
const SearchAuto NeighborSearch = 0

// WithNeighborSearch names the neighbour search. Only SearchAuto is
// accepted.
//
// Deprecated: drop the option.
func WithNeighborSearch(s NeighborSearch) CondenserOption {
	return func(c *Condenser) { c.search = s }
}

func (s NeighborSearch) validate() error {
	if s != SearchAuto {
		return fmt.Errorf("core: unknown neighbour search %d", int(s))
	}
	return nil
}

// IndexPrecision names the arithmetic of the dynamic routing index.
//
// Deprecated: routing is always float64; drop WithIndexPrecision.
type IndexPrecision int

// Float64 is the only index precision.
//
// Deprecated: see IndexPrecision.
const Float64 IndexPrecision = 0

// WithIndexPrecision names the dynamic routing index's arithmetic. Only
// Float64 is accepted.
//
// Deprecated: drop the option.
func WithIndexPrecision(p IndexPrecision) CondenserOption {
	return func(c *Condenser) { c.precision = p }
}

func (p IndexPrecision) validate() error {
	if p != Float64 {
		return fmt.Errorf("core: unknown index precision %d", int(p))
	}
	return nil
}
