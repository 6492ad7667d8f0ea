package vtime

import (
	"math/rand"
	"testing"
)

// TestPruneMatchesUnpruned drives a pruned and an unpruned resource with an
// identical random request stream whose readies all stay within the backfill
// horizon of the high-water mark — the regime every real engine run is in —
// and requires bit-identical grants. Pruning is a memory optimization, not a
// policy change.
func TestPruneMatchesUnpruned(t *testing.T) {
	pruned := NewResource("p")
	pruned.SetBackfillHorizon(Millisecond)
	plain := NewResource("u")
	plain.SetBackfillHorizon(-1)

	rng := rand.New(rand.NewSource(7))
	front := Time(0)
	for i := 0; i < 20_000; i++ {
		var ready Time
		if rng.Intn(4) == 0 {
			// A straggler, but within the horizon of the front.
			ready = front.Add(-Duration(rng.Int63n(int64(Millisecond / 2))))
			if ready < 0 {
				ready = 0
			}
		} else {
			front = front.Add(Duration(1 + rng.Int63n(int64(10*Microsecond))))
			ready = front
		}
		service := Duration(1 + rng.Int63n(int64(5*Microsecond)))
		s1, e1 := pruned.UseAs("q1", ready, service)
		s2, e2 := plain.UseAs("q1", ready, service)
		if s1 != s2 || e1 != e2 {
			t.Fatalf("request %d (ready %v, service %v): pruned grants [%v,%v), unpruned [%v,%v)",
				i, ready, service, s1, e1, s2, e2)
		}
	}
	if f1, f2 := pruned.FreeAt(), plain.FreeAt(); f1 != f2 {
		t.Errorf("FreeAt diverged: pruned %v, unpruned %v", f1, f2)
	}
	if b1, b2 := pruned.BusyTime(), plain.BusyTime(); b1 != b2 {
		t.Errorf("BusyTime diverged: pruned %v, unpruned %v", b1, b2)
	}
}

// TestPruneClampsStragglers: once a request's ready falls behind the prune
// floor it is clamped forward — it must never be granted an interval
// overlapping live reservations, and never start before the floor.
func TestPruneClampsStragglers(t *testing.T) {
	r := NewResource("r")
	r.SetBackfillHorizon(10 * Microsecond)

	// March the front far past the horizon, leaving 5 µs gaps that a
	// non-pruning resource would happily backfill.
	tt := Time(0)
	for i := 0; i < 100; i++ {
		tt = tt.Add(10 * Microsecond)
		r.UseAs("q1", tt, 5*Microsecond)
	}
	floor := r.hwm.Add(-10 * Microsecond)
	start, end := r.UseAs("q1", 0, Microsecond)
	if start < floor {
		t.Errorf("straggler granted [%v,%v), before the prune floor %v", start, end, floor)
	}
	for _, iv := range r.busy[r.head:] {
		if start < iv.end && iv.start < end && !(start >= iv.start && end <= iv.end) {
			t.Errorf("straggler grant [%v,%v) overlaps reservation [%v,%v)", start, end, iv.start, iv.end)
		}
	}
}

// TestPruneBoundsBusyList: under the advancing-front workload the live busy
// list must stay bounded by the horizon's content, not grow with the total
// reservation count, and the dead prefix must be compacted away.
func TestPruneBoundsBusyList(t *testing.T) {
	r := NewResource("r")
	r.SetBackfillHorizon(Millisecond)
	tt := Time(0)
	for i := 0; i < 50_000; i++ {
		tt = tt.Add(10 * Microsecond) // leaves 5 µs gaps: nothing merges
		r.UseAs("q1", tt, 5*Microsecond)
	}
	// 1 ms horizon / 10 µs per reservation = ~100 live intervals.
	if live := len(r.busy) - r.head; live > 200 {
		t.Errorf("live busy list has %d intervals after 50k reservations, want O(horizon) ≈ 100", live)
	}
	if len(r.busy) > 1_000 {
		t.Errorf("busy slice holds %d slots; dead prefix is not being compacted", len(r.busy))
	}
	if want := tt.Add(5 * Microsecond); r.FreeAt() != want {
		t.Errorf("FreeAt = %v, want %v (must stay exact across pruning)", r.FreeAt(), want)
	}
}

// TestNeverPruneHorizon: a negative horizon disables pruning, so arbitrarily
// old gaps stay available for backfilling.
func TestNeverPruneHorizon(t *testing.T) {
	r := NewResource("r")
	r.SetBackfillHorizon(-1)
	tt := Time(0)
	for i := 0; i < 2_000; i++ {
		tt = tt.Add(10 * Microsecond)
		r.UseAs("q1", tt, 5*Microsecond)
	}
	// The very first gap is [0, 10µs); it must still be granted.
	start, end := r.UseAs("q1", 0, 2*Microsecond)
	if start != 0 || end != Time(2*Microsecond) {
		t.Errorf("oldest gap not backfilled with pruning disabled: got [%v,%v)", start, end)
	}
}

// TestResetKeepsHorizon: Reset clears the schedule but keeps the configured
// horizon, and the resource behaves like new.
func TestResetKeepsHorizon(t *testing.T) {
	r := NewResource("r")
	r.SetBackfillHorizon(-1)
	for i := 0; i < 100; i++ {
		r.UseAs("q1", Time(i)*Time(10*Microsecond), 5*Microsecond)
	}
	r.Reset()
	if r.FreeAt() != 0 || r.BusyTime() != 0 {
		t.Fatalf("after Reset: FreeAt %v, BusyTime %v", r.FreeAt(), r.BusyTime())
	}
	if r.horizon != -1 {
		t.Errorf("Reset dropped the configured horizon: %v", r.horizon)
	}
	if start, _ := r.UseAs("q1", 0, Microsecond); start != 0 {
		t.Errorf("fresh resource after Reset granted start %v, want 0", start)
	}
}
