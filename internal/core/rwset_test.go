package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"thedb/internal/storage"
)

// TestRWSetLookup: lookup answers like a plain map at every size from
// empty to three times smallSet, so across the promotion from scanning
// the frame-sized slice to byRec. Records join in random order; in the
// sorted variant the second half joins after sort, through the sorted
// membership insert of a healing re-execution. One set is reused for
// every size, reset in between, as a worker's frame is.
func TestRWSetLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s RWSet
	for n := 0; n <= 3*smallSet; n++ {
		for _, sorted := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/sorted=%v", n, sorted), func(t *testing.T) {
				s.reset()
				recs := make([]*storage.Record, n+smallSet) // the tail never joins
				for i := range recs {
					recs[i] = storage.NewRecord(0, storage.Key(i), nil, 0, true)
				}
				ref := map[*storage.Record]*Element{}
				check := func(when string) {
					t.Helper()
					for i, rec := range recs {
						if got, want := s.lookup(rec), ref[rec]; got != want {
							t.Fatalf("%s: lookup(record %d) = %p, want %p", when, i, got, want)
						}
					}
				}
				check("empty")
				for j, i := range rng.Perm(n) {
					if sorted && j == n/2 {
						s.sort()
					}
					el := &Element{rec: recs[i]}
					s.add(el)
					ref[recs[i]] = el
					check(fmt.Sprintf("after %d adds", j+1))
				}
				if sorted && !slices.IsSortedFunc(s.elems, compareIn[s.order]) {
					t.Error("the membership insert broke validation order")
				}
			})
		}
	}
}
