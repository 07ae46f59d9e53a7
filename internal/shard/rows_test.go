package shard

import (
	"math/rand"
	"slices"
	"testing"
)

type testRow struct{ key, val int }

// TestRowsPatchAgainstMap drives a rows through seeded batches of inserts,
// updates and deletes beside a plain map: after every patch the rows hold
// exactly the map's entries in key order, the chunks keep their bounds, a
// row that read as it was is the predecessor's by pointer, and the
// predecessor itself is as it was.
func TestRowsPatchAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	model := map[int]int{}
	r := rows[int, testRow]{key: func(row *testRow) int { return row.key }}
	flat := func(r rows[int, testRow]) (ptrs []*testRow, vals []testRow) {
		r.each(func(row *testRow) { ptrs, vals = append(ptrs, row), append(vals, *row) })
		return
	}
	for step := 0; step < 400; step++ {
		// Batches of every size: one key, a wave, now and then most of them.
		n := 1 + rng.Intn(4)
		if step%50 == 0 {
			n = 300
		}
		var keys []int
		for i := 0; i < n; i++ {
			k := rng.Intn(1000)
			keys = append(keys, k)
			switch rng.Intn(4) {
			case 0:
				delete(model, k)
			case 1: // named, not changed
			default:
				model[k] = rng.Intn(1 << 20)
			}
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)

		wasPtrs, wasVals := flat(r)
		next := r.patch(keys, func(k int) (testRow, bool) {
			v, ok := model[k]
			return testRow{k, v}, ok
		})
		if ptrs, vals := flat(r); !slices.Equal(ptrs, wasPtrs) || !slices.Equal(vals, wasVals) {
			t.Fatalf("step %d: patch wrote to its receiver", step)
		}

		ptrs, vals := flat(next)
		if len(vals) != len(model) || next.n != len(model) {
			t.Fatalf("step %d: %d rows (n = %d), want %d", step, len(vals), next.n, len(model))
		}
		for i, row := range vals {
			if v, ok := model[row.key]; !ok || v != row.val {
				t.Fatalf("step %d: row %+v, model has %d (%v)", step, row, v, ok)
			}
			if i > 0 && vals[i-1].key >= row.key {
				t.Fatalf("step %d: keys out of order at row %d", step, i)
			}
			if got := next.get(row.key); got != ptrs[i] {
				t.Fatalf("step %d: get(%d) = %p, want row %d (%p)", step, row.key, got, i, ptrs[i])
			}
		}
		if next.get(1000) != nil || next.get(-1) != nil {
			t.Fatalf("step %d: get finds a key that was never inserted", step)
		}
		for i, c := range next.chunks {
			if len(c) == 0 || len(c) > 2*rowChunk {
				t.Fatalf("step %d: chunk %d holds %d rows, want 1..%d", step, i, len(c), 2*rowChunk)
			}
		}
		if want := 4*len(model)/rowChunk + 1; len(next.chunks) > want {
			t.Fatalf("step %d: %d rows in %d chunks, want at most %d", step, len(model), len(next.chunks), want)
		}
		for i, row := range wasVals {
			if v, ok := model[row.key]; ok && v == row.val && next.get(row.key) != wasPtrs[i] {
				t.Fatalf("step %d: unchanged row %+v was not shared", step, row)
			}
		}
		r = next
	}
}
