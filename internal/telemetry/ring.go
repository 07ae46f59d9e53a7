package telemetry

// ring retains the newest limit items of a sequence numbered 1, 2, 3, ... in
// push order. Item n lives at buf[(n-origin) mod limit], so lookup by number
// is O(1) and a push past the limit overwrites the oldest item in place. The
// buffer grows by append until it holds limit items and only then wraps: an
// idle or short-lived tracer never pays for its cap up front.
type ring[T any] struct {
	buf    []T
	limit  int
	origin int // number stored at buf[0] until the first wrap
	last   int // highest number pushed so far
}

func newRing[T any](limit int) ring[T] { return ring[T]{limit: limit, origin: 1} }

// push stores v as item last+1 and returns that number.
func (r *ring[T]) push(v T) int {
	r.last++
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, v)
	} else {
		r.buf[(r.last-r.origin)%r.limit] = v
	}
	return r.last
}

// at returns item n, or false when it was never pushed or is evicted.
func (r *ring[T]) at(n int) (v T, ok bool) {
	if n > r.last || n <= r.last-len(r.buf) {
		return v, false
	}
	return r.buf[(n-r.origin)%r.limit], true
}

// since copies the retained items numbered above after, oldest first.
func (r *ring[T]) since(after int) []T {
	after = max(after, r.last-len(r.buf))
	k := r.last - after
	if k <= 0 {
		return nil
	}
	out := make([]T, 0, k)
	i := (after + 1 - r.origin) % r.limit
	if tail := len(r.buf) - i; tail < k {
		out = append(out, r.buf[i:]...)
		return append(out, r.buf[:k-tail]...)
	}
	return append(out, r.buf[i:i+k]...)
}

// resize sets the limit to n, keeping the newest n items in order. The copy
// is sized by what is retained, never by n.
func (r *ring[T]) resize(n int) {
	kept := r.since(r.last - n)
	r.buf, r.limit, r.origin = kept, n, r.last-len(kept)+1
}
