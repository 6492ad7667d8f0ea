package vtime

import (
	"math/rand"
	"sync"
	"testing"
)

// TestResourceStressUseFreeReset hammers one resource from many goroutines
// mixing UseAs, Txn commits, FreeAt/BusyTime reads, and Reset, each call in
// a turn of its own (Kernel.Lock) — the race-detector gate for a resource
// whose token is its lock (run with -race). Grants are not asserted against
// each other here (Reset legitimately rewinds the schedule mid-flight); the
// invariants checked are per-call sanity and race-freedom.
func TestResourceStressUseFreeReset(t *testing.T) {
	r := NewResource("stress")
	var k Kernel
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
				k.Lock()
				ok := stressStep(t, r, &txn, rng, w, i, owner)
				k.Unlock()
				if !ok {
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// stressStep is one call of TestResourceStressUseFreeReset's worker w; it
// reports false on an invalid grant.
func stressStep(t *testing.T, r *Resource, txn **Txn, rng *rand.Rand, w, i int, owner string) bool {
	switch rng.Intn(8) {
	case 0:
		if w == 0 && i%64 == 63 {
			r.Reset()
			*txn = r.Txn(owner) // the old chain tail is stale after Reset
		} else {
			_ = r.FreeAt()
		}
	case 1:
		_ = r.BusyTime()
		_ = r.OwnerBusy()[owner]
	case 2:
		_ = r.OwnerBusy()
	case 3, 4:
		ready := Time(rng.Intn(10000))
		s, e := r.UseAs(owner, ready, Duration(rng.Intn(50)+1))
		if s < 0 || e < s {
			t.Errorf("UseAs granted invalid [%v,%v)", s, e)
			return false
		}
	default:
		for n := rng.Intn(6) + 1; n > 0; n-- {
			(*txn).Reserve(Time(rng.Intn(10000)), Duration(rng.Intn(50)-2))
		}
		for _, g := range (*txn).Commit() {
			if g.Start < 0 || g.End < g.Start {
				t.Errorf("Commit granted invalid [%v,%v)", g.Start, g.End)
				return false
			}
		}
	}
	return true
}

// TestResourceConcurrentTxnNoOverlap checks overlap-freedom of batched
// commits from concurrent goroutines, each commit in a turn (no Reset in the
// mix, so all grants belong to one schedule).
func TestResourceConcurrentTxnNoOverlap(t *testing.T) {
	r := NewResource("shared")
	var k Kernel
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
				k.Lock()
				results[w] = append(results[w], append([]Request(nil), txn.Commit()...)...)
				k.Unlock()
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
	f.Add(int64(1), uint8(10))
	f.Add(int64(7), uint8(40))
	f.Add(int64(-3), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("fuzz")
		lag := Duration(rng.Intn(500) + 50) // how far a kernel's time trails the readies
		txn := r.Txn("q")
		var chainTail, high Time // end of the transaction's last committed link; latest ready
		var grants []Request
		use := func(ready Time, svc Duration) {
			// The prune floor at request time lower-bounds the effective
			// ready: gaps before it are treated as solid busy time.
			high = max(high, ready)
			floor := r.PruneFloor()
			var s, e Time
			switch rng.Intn(3) {
			case 0:
				s, e = r.UseAs("q", ready, svc)
			case 1:
				floor = max(floor, high.Add(-lag))
				s, e = useAt(r, ready, svc, high.Add(-lag))
			default:
				txn.Reserve(ready, svc)
				g := txn.Commit()
				s, e = g[0].Start, g[0].End
				if ready < chainTail {
					ready = chainTail
				}
				chainTail = e
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
		assertNoOverlap(t, grants)
	})
}
