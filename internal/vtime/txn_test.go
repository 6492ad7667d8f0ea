package vtime

import (
	"math/rand"
	"sync"
	"testing"
)

// TestTxnChainMatchesSerialUseAs is the core bit-identity property of the
// batched kernel: a chain committed in one critical section grants exactly
// the intervals the equivalent serial UseAs sequence grants, for whole and
// fair-sliced placement alike.
func TestTxnChainMatchesSerialUseAs(t *testing.T) {
	for _, slice := range []Duration{0, 7} {
		serial := NewResource("serial")
		batched := NewResource("batched")
		serial.SetFairSlice(slice)
		batched.SetFairSlice(slice)

		rng := rand.New(rand.NewSource(42))
		txn := batched.Txn("q1")
		var serialTail Time
		for round := 0; round < 50; round++ {
			n := rng.Intn(8) + 1
			type req struct {
				ext Time
				svc Duration
			}
			reqs := make([]req, n)
			for i := range reqs {
				reqs[i] = req{
					ext: Time(rng.Intn(2000) - 100), // negative exts clamp to 0
					svc: Duration(rng.Intn(30) - 2), // non-positive services allowed
				}
				txn.Reserve(reqs[i].ext, reqs[i].svc)
			}
			grants := txn.Commit()
			if len(grants) != n {
				t.Fatalf("round %d: %d grants for %d links", round, len(grants), n)
			}
			for i, rq := range reqs {
				ready := rq.ext
				if ready < serialTail {
					ready = serialTail
				}
				ws, we := serial.UseAs("q1", ready, rq.svc)
				if grants[i].Start != ws || grants[i].End != we {
					t.Fatalf("round %d link %d (ext=%v svc=%v slice=%v): batched [%v,%v) != serial [%v,%v)",
						round, i, rq.ext, rq.svc, slice, grants[i].Start, grants[i].End, ws, we)
				}
				serialTail = we
			}
			if txn.Tail() != serialTail {
				t.Fatalf("round %d: tail %v != serial tail %v", round, txn.Tail(), serialTail)
			}
		}
		if serial.BusyTime() != batched.BusyTime() {
			t.Errorf("slice=%v: busy %v != %v", slice, batched.BusyTime(), serial.BusyTime())
		}
		if serial.BusyTimeBy("q1") != batched.BusyTimeBy("q1") {
			t.Errorf("slice=%v: owner busy %v != %v", slice, batched.BusyTimeBy("q1"), serial.BusyTimeBy("q1"))
		}
		if serial.FreeAt() != batched.FreeAt() {
			t.Errorf("slice=%v: freeAt %v != %v", slice, batched.FreeAt(), serial.FreeAt())
		}
	}
}

// TestRecorderReplayReproducesSchedule drives a resource concurrently
// through a mix of serial UseAs calls and batched Txn commits while a
// recorder captures the commit-order placement log, then replays the log
// through serial UseAs on a fresh reference resource: the replay must
// reproduce every grant bit-identically. This is the cross-check that the
// batched kernel's placements are the same deterministic earliest-fit
// placements the serial kernel performs.
func TestRecorderReplayReproducesSchedule(t *testing.T) {
	for _, slice := range []Duration{0, 50} {
		r := NewResource("live")
		r.SetFairSlice(slice)
		type rec struct {
			owner      string
			ready      Time
			service    Duration
			start, end Time
		}
		var log []rec
		r.SetRecorder(func(owner string, q Request) {
			log = append(log, rec{owner, q.Ready, q.Service, q.Start, q.End})
		})

		const workers = 6
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				owner := string(rune('a' + w))
				txn := r.Txn(owner)
				for i := 0; i < 120; i++ {
					if w%2 == 0 {
						// Serial path.
						r.UseAs(owner, Time(rng.Intn(5000)), Duration(rng.Intn(120)+1))
						continue
					}
					// Batched path: small chains.
					for n := rng.Intn(5) + 1; n > 0; n-- {
						txn.Reserve(Time(rng.Intn(5000)), Duration(rng.Intn(120)+1))
					}
					txn.Commit()
				}
			}(w)
		}
		wg.Wait()
		r.SetRecorder(nil)

		ref := NewResource("ref")
		ref.SetFairSlice(slice)
		for i, rc := range log {
			s, e := ref.UseAs(rc.owner, rc.ready, rc.service)
			if s != rc.start || e != rc.end {
				t.Fatalf("slice=%v: replay diverged at record %d (owner=%s ready=%v svc=%v): live [%v,%v), replay [%v,%v)",
					slice, i, rc.owner, rc.ready, rc.service, rc.start, rc.end, s, e)
			}
		}
		if r.BusyTime() != ref.BusyTime() {
			t.Errorf("slice=%v: busy %v != replay %v", slice, r.BusyTime(), ref.BusyTime())
		}
		if r.FreeAt() != ref.FreeAt() {
			t.Errorf("slice=%v: freeAt %v != replay %v", slice, r.FreeAt(), ref.FreeAt())
		}
	}
}

// TestTxnEmptyCommit checks that committing with nothing staged is a no-op
// and does not disturb the tail.
func TestTxnEmptyCommit(t *testing.T) {
	r := NewResource("r")
	txn := r.Txn("q1")
	if g := txn.Commit(); len(g) != 0 {
		t.Fatalf("empty commit returned %d grants", len(g))
	}
	txn.Reserve(10, 5)
	txn.Commit()
	tail := txn.Tail()
	if g := txn.Commit(); len(g) != 0 || txn.Tail() != tail {
		t.Fatalf("empty commit moved tail: %v -> %v (%d grants)", tail, txn.Tail(), len(g))
	}
	if r.BusyTime() != 5 {
		t.Errorf("busy = %v, want 5", r.BusyTime())
	}
}
