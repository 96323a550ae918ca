package core

import "fmt"

// IndexPrecision names the arithmetic of the dynamic routing index. The
// index always stores and compares float64 coordinates, so Float64 is the
// only valid value.
//
// Deprecated: routing is always float64; the type remains so existing
// WithIndexPrecision(Float64) calls keep compiling.
type IndexPrecision int

// Float64 is the only index precision.
//
// Deprecated: see IndexPrecision.
const Float64 IndexPrecision = 0

func (p IndexPrecision) validate() error {
	if p != Float64 {
		return fmt.Errorf("core: unknown index precision %d", int(p))
	}
	return nil
}
