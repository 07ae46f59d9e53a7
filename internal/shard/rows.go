package shard

import (
	"cmp"
	"slices"
)

// rowChunk sizes the chunks of a rows: one that outgrows twice this is cut
// into pieces of it, one that shrinks under half of it joins its left
// neighbour.
const rowChunk = 32

// rows is a persistent sequence of rows sorted by key, kept in chunks: patch
// derives the next sequence by building anew the chunks its keys fall in and
// sharing every other chunk, so a change costs a chunk or two and the chunk
// list, not the sequence. Both row kinds of a Snap are one. Nothing reachable
// from a rows is written once patch has returned it.
type rows[K cmp.Ordered, T comparable] struct {
	key    func(*T) K
	chunks [][]*T // none empty; keys ascend within a chunk and across chunks
	n      int
}

func (r *rows[K, T]) compare(row *T, k K) int { return cmp.Compare(r.key(row), k) }

// chunkOf returns the index of the chunk that holds k or would: the last one
// whose first key is at most k, else the first (len(chunks) when there is
// none).
func (r *rows[K, T]) chunkOf(k K) int {
	i, found := slices.BinarySearchFunc(r.chunks, k, func(c []*T, k K) int { return r.compare(c[0], k) })
	if !found && i > 0 {
		i--
	}
	return i
}

// get returns the row with key k, or nil.
func (r *rows[K, T]) get(k K) *T {
	if c := r.chunkOf(k); c < len(r.chunks) {
		if i, found := slices.BinarySearchFunc(r.chunks[c], k, r.compare); found {
			return r.chunks[c][i]
		}
	}
	return nil
}

// each calls fn on every row, in key order.
func (r *rows[K, T]) each(fn func(*T)) {
	for _, c := range r.chunks {
		for _, row := range c {
			fn(row)
		}
	}
}

// patch returns r with the rows of keys — ascending, no repeats — replaced
// by what read answers for them now: a row, or none (false) for a key that
// has no row any more. A row that reads as it was is shared with r, like
// every row patch was not asked about.
func (r rows[K, T]) patch(keys []K, read func(K) (T, bool)) rows[K, T] {
	if len(keys) == 0 {
		return r
	}
	next := rows[K, T]{key: r.key, n: r.n, chunks: make([][]*T, 0, len(r.chunks)+1)}
	from := 0 // r.chunks[:from] are in next
	for len(keys) > 0 {
		// The keys that fall in one chunk: those before the next chunk's first.
		c, k := r.chunkOf(keys[0]), len(keys)
		var old []*T
		if c < len(r.chunks) {
			old = r.chunks[c]
			next.chunks = append(next.chunks, r.chunks[from:c]...)
			from = c + 1
		}
		if from < len(r.chunks) {
			k, _ = slices.BinarySearch(keys, r.key(r.chunks[from][0]))
		}
		chunk := r.merge(old, keys[:k], read)
		keys = keys[k:]
		next.n += len(chunk) - len(old)
		if last := len(next.chunks) - 1; last >= 0 && len(chunk) > 0 && len(chunk) < rowChunk/2 {
			chunk = slices.Concat(next.chunks[last], chunk)
			next.chunks = next.chunks[:last]
		}
		for len(chunk) > 2*rowChunk {
			next.chunks = append(next.chunks, chunk[:rowChunk:rowChunk])
			chunk = chunk[rowChunk:]
		}
		if len(chunk) > 0 {
			next.chunks = append(next.chunks, chunk)
		}
	}
	next.chunks = append(next.chunks, r.chunks[from:]...)
	return next
}

// merge builds the chunk that takes old's place: old with the rows of keys
// read again.
func (r *rows[K, T]) merge(old []*T, keys []K, read func(K) (T, bool)) []*T {
	out := make([]*T, 0, len(old)+len(keys))
	from := 0 // old[:from] is merged
	for _, k := range keys {
		i, found := slices.BinarySearchFunc(old[from:], k, r.compare)
		i += from
		out = append(out, old[from:i]...)
		if from = i; found {
			from++
		}
		switch now, ok := read(k); {
		case !ok:
		case found && *old[i] == now:
			out = append(out, old[i])
		default:
			row := now
			out = append(out, &row)
		}
	}
	return append(out, old[from:]...)
}
