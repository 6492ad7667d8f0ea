package vtime

import (
	"math/rand"
	"sync"
	"testing"
)

// TestResourceStressUseFreeReset hammers one resource from many goroutines
// mixing UseAs, Txn commits, FreeAt/BusyTime reads, and Reset — the
// race-detector gate for the batched kernel (run with -race). Grants are
// not asserted against each other here (Reset legitimately rewinds the
// schedule mid-flight); the invariants checked are per-call sanity and
// race-freedom.
func TestResourceStressUseFreeReset(t *testing.T) {
	r := NewResource("stress")
	const (
		workers = 8
		each    = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			owner := string(rune('a' + w))
			txn := r.Txn(owner)
			for i := 0; i < each; i++ {
				switch rng.Intn(8) {
				case 0:
					if w == 0 && i%64 == 63 {
						r.Reset()
						txn = r.Txn(owner) // the old chain tail is stale after Reset
					} else {
						_ = r.FreeAt()
					}
				case 1:
					_ = r.BusyTime()
					_ = r.BusyTimeBy(owner)
				case 2:
					_ = r.OwnerBusy()
				case 3, 4:
					ready := Time(rng.Intn(10000))
					s, e := r.UseAs(owner, ready, Duration(rng.Intn(50)+1))
					if s < 0 || e < s {
						t.Errorf("UseAs granted invalid [%v,%v)", s, e)
						return
					}
				default:
					for n := rng.Intn(6) + 1; n > 0; n-- {
						txn.Reserve(Time(rng.Intn(10000)), Duration(rng.Intn(50)-2))
					}
					for _, g := range txn.Commit() {
						if g.Start < 0 || g.End < g.Start {
							t.Errorf("Commit granted invalid [%v,%v)", g.Start, g.End)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestResourceConcurrentTxnNoOverlap checks overlap-freedom of batched
// commits under concurrency (no Reset in the mix, so all grants belong to
// one schedule).
func TestResourceConcurrentTxnNoOverlap(t *testing.T) {
	r := NewResource("shared")
	const (
		workers = 8
		chains  = 60
	)
	results := make([][]Request, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			txn := r.Txn(string(rune('a' + w)))
			for c := 0; c < chains; c++ {
				for n := rng.Intn(8) + 1; n > 0; n-- {
					txn.Reserve(Time(rng.Intn(10000)), Duration(rng.Intn(20)+1))
				}
				results[w] = append(results[w], append([]Request(nil), txn.Commit()...)...)
			}
		}(w)
	}
	wg.Wait()
	var all []Request
	for _, rs := range results {
		all = append(all, rs...)
	}
	assertNoOverlap(t, all)
}

func assertNoOverlap(t *testing.T, grants []Request) {
	t.Helper()
	sorted := append([]Request(nil), grants...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Start < sorted[j-1].Start; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Start < sorted[i-1].End {
			t.Fatalf("overlapping grants: [%v,%v) and [%v,%v)",
				sorted[i-1].Start, sorted[i-1].End, sorted[i].Start, sorted[i].End)
		}
	}
}

// FuzzResourcePlacement asserts, over arbitrary request sequences driving
// both the serial and the transactional path, that granted intervals never
// overlap and never start before the request's ready time clamped to the
// prune floor.
func FuzzResourcePlacement(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(0))
	f.Add(int64(7), uint8(40), uint8(5))
	f.Add(int64(-3), uint8(200), uint8(16))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, sliceRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("fuzz")
		r.SetBackfillHorizon(Duration(rng.Intn(500) + 50))
		if slice := Duration(sliceRaw); slice > 0 {
			r.SetFairSlice(slice)
		}
		txn := r.Txn("q")
		var grants []Request
		use := func(ready Time, svc Duration) {
			// The prune floor at request time lower-bounds the effective
			// ready: gaps before it are treated as solid busy time.
			floor := r.PruneFloor()
			var s, e Time
			if rng.Intn(2) == 0 {
				s, e = r.UseAs("q", ready, svc)
			} else {
				chainFloor := txn.Tail()
				txn.Reserve(ready, svc)
				g := txn.Commit()
				s, e = g[0].Start, g[0].End
				if ready < chainFloor {
					ready = chainFloor
				}
			}
			if svc <= 0 {
				return
			}
			if ready < 0 {
				ready = 0
			}
			min := ready
			if floor > min {
				min = floor
			}
			if s < min {
				t.Fatalf("grant [%v,%v) starts before ready=%v clamped to floor=%v", s, e, ready, floor)
			}
			if e.Sub(s) < svc {
				t.Fatalf("grant [%v,%v) spans less than service %v", s, e, svc)
			}
			grants = append(grants, Request{Start: s, End: e})
		}
		for i := 0; i < int(n)+1; i++ {
			use(Time(rng.Intn(100000)-100), Duration(rng.Intn(300)-5))
		}
		if sliceRaw == 0 {
			// A fair-sliced grant's [start,end) span contains gaps that later
			// requests legitimately fill, so span overlap-freedom only holds
			// for whole-reservation placement.
			assertNoOverlap(t, grants)
		}
	})
}
