package vtime

import (
	"math/rand"
	"testing"
)

// TestPruneAtKernelTimeMatchesUnpruned: two processes in one kernel submit
// interleaved requests on a shared resource, each ready no earlier than what
// its process last emitted — the rule every engine process keeps. Pruning at
// the kernel's time then changes no grant: replaying the log through a
// resource that never prunes reproduces every one. Pruning is a memory
// optimization, not a policy change.
func TestPruneAtKernelTimeMatchesUnpruned(t *testing.T) {
	pruned := NewResource("p")
	var log []Request
	pruned.SetRecorder(func(_ string, q Request) { log = append(log, q) })

	bodies := map[string]func(*Agent){}
	for i, id := range []string{"a", "b"} {
		bodies[id] = func(a *Agent) {
			rng := rand.New(rand.NewSource(int64(7 + i)))
			front := Time(0)
			for n := 0; n < 10_000; n++ {
				front = front.Add(Duration(1 + rng.Int63n(int64(10*Microsecond))))
				a.Emit(front)
				// A request ready up to 50 µs after what was emitted:
				// requests of the two processes backfill each other's gaps.
				q := [1]Request{{Resource: pruned, Stream: id, Seq: uint64(n),
					Ready: front.Add(Duration(rng.Int63n(int64(50 * Microsecond)))), Service: Duration(1 + rng.Int63n(int64(5*Microsecond)))}}
				a.Submit("q1", q[:])
			}
		}
	}
	inKernel(bodies, nil)

	if f := pruned.PruneFloor(); f < Time(10*Millisecond) {
		t.Fatalf("prune floor %v: the kernel's time did not advance", f)
	}
	if live := len(pruned.busy) - pruned.head; live > 1_000 {
		t.Errorf("%d live intervals after %d grants: pruning did not bound the busy list", live, len(log))
	}
	plain := NewResource("u")
	for i, q := range log {
		if s, e := plain.UseAs("q1", q.Ready, q.Service); s != q.Start || e != q.End {
			t.Fatalf("request %d (ready %v, service %v): pruned grants [%v,%v), unpruned [%v,%v)",
				i, q.Ready, q.Service, q.Start, q.End, s, e)
		}
	}
}

// useAt grants one request on r as an agent whose kernel stands at floor.
func useAt(r *Resource, ready Time, service Duration, floor Time) (start, end Time) {
	q := [1]Request{{Resource: r, Ready: ready, Service: service}}
	submit("q1", q[:], floor)
	return q[0].Start, q[0].End
}

// TestPruneClampsStragglers: a request ready before the prune floor is
// clamped forward — it must never be granted an interval overlapping live
// reservations, and never start before the floor.
func TestPruneClampsStragglers(t *testing.T) {
	r := NewResource("r")

	// March the front far past the floor, leaving 5 µs gaps that a
	// non-pruning resource would happily backfill.
	tt := Time(0)
	for i := 0; i < 100; i++ {
		tt = tt.Add(10 * Microsecond)
		useAt(r, tt, 5*Microsecond, tt.Add(-10*Microsecond))
	}
	floor := r.PruneFloor()
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
// list must stay bounded by what lies after the floor, not grow with the
// total reservation count, and the dead prefix must be compacted away.
func TestPruneBoundsBusyList(t *testing.T) {
	r := NewResource("r")
	tt := Time(0)
	for i := 0; i < 50_000; i++ {
		tt = tt.Add(10 * Microsecond) // leaves 5 µs gaps: nothing merges
		useAt(r, tt, 5*Microsecond, tt.Add(-Millisecond))
	}
	// 1 ms behind the front / 10 µs per reservation = ~100 live intervals.
	if live := len(r.busy) - r.head; live > 200 {
		t.Errorf("live busy list has %d intervals after 50k reservations, want ≈ 100", live)
	}
	if len(r.busy) > 1_000 {
		t.Errorf("busy slice holds %d slots; dead prefix is not being compacted", len(r.busy))
	}
	if want := tt.Add(5 * Microsecond); r.FreeAt() != want {
		t.Errorf("FreeAt = %v, want %v (must stay exact across pruning)", r.FreeAt(), want)
	}
}

// TestNeverPruneHorizon: a resource granted outside any kernel never prunes,
// so arbitrarily old gaps stay available for backfilling.
func TestNeverPruneHorizon(t *testing.T) {
	r := NewResource("r")
	tt := Time(0)
	for i := 0; i < 2_000; i++ {
		tt = tt.Add(10 * Microsecond)
		r.UseAs("q1", tt, 5*Microsecond)
	}
	// The very first gap is [0, 10µs); it must still be granted.
	start, end := r.UseAs("q1", 0, 2*Microsecond)
	if start != 0 || end != Time(2*Microsecond) {
		t.Errorf("oldest gap not backfilled without a kernel: got [%v,%v)", start, end)
	}
}

// TestPruneHeldBackByAnEarlierArrival: a frame wakes the receiver at 100;
// a producer with a lesser key then delivers one arriving at 90 to the
// inbox the receiver has not drained yet. The receiver's mark — and so the
// kernel's time — must come down to 90, or its request ready at 90 would
// be pruned forward to 100 where a resource that never prunes grants it
// at 90.
func TestPruneHeldBackByAnEarlierArrival(t *testing.T) {
	cpu := NewResource("cpu")
	inbox := make(chan Time, 4)
	var recv *Agent
	var got [2]Request
	send := func(a *Agent, ready, arrival Time) {
		q := [1]Request{{Resource: NewResource("nic"), Stream: "s", Ready: ready, Service: 1}}
		a.Submit("q1", q[:])
		Send(a, recv, inbox, &arrival, arrival, nil)
	}
	inKernel(map[string]func(*Agent){
		"0recv": func(a *Agent) {
			recv = a
			for i := range got {
				at, _ := Recv(a, Inbox, inbox, nil)
				got[i] = Request{Resource: cpu, Stream: "r", Seq: uint64(i), Ready: at, Service: 5}
			}
			a.Submit("q1", got[:1])
			a.Submit("q1", got[1:])
		},
		"1p1": func(a *Agent) { send(a, 10, 100) },
		"2p2": func(a *Agent) { send(a, 20, 90) },
	}, nil)
	plain := NewResource("u")
	for _, q := range got {
		if s, e := plain.UseAs("q1", q.Ready, q.Service); s != q.Start || e != q.End {
			t.Errorf("ready %v: pruned grants [%v,%v), unpruned [%v,%v)", q.Ready, q.Start, q.End, s, e)
		}
	}
}
