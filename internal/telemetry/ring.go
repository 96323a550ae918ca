package telemetry

// ring is a fixed-capacity buffer that keeps the most recent values pushed
// into it, overwriting the oldest. It keeps no cursor of its own: the
// owner's count of values ever pushed (the sequence number every owner
// already maintains) places each value, so after n pushes slot
// (n−1) mod len holds the newest value and min(n, len) values are live.
// Callers synchronize; capacity must be positive.
type ring[T any] []T

// push stores v as the n-th value ever pushed (n ≥ 1), overwriting the
// value pushed len(r) earlier.
func (r ring[T]) push(n uint64, v T) { r[(n-1)%uint64(len(r))] = v }

// held returns how many values the ring holds after n pushes.
func (r ring[T]) held(n uint64) int {
	if n < uint64(len(r)) {
		return int(n)
	}
	return len(r)
}

// newest returns the i-th most recent value after n pushes (i = 0 is the
// newest); i must be below held(n).
func (r ring[T]) newest(n uint64, i int) T { return r[(n-1-uint64(i))%uint64(len(r))] }

// last returns a copy of up to k of the most recent values after n
// pushes, oldest first; k ≤ 0 returns every held value.
func (r ring[T]) last(n uint64, k int) []T {
	m := r.held(n)
	if k > 0 && k < m {
		m = k
	}
	out := make([]T, m)
	for i := range out {
		out[i] = r.newest(n, m-1-i)
	}
	return out
}
