package vtime

import (
	"maps"
	"slices"
	"testing"
	"time"

	"scsq/internal/race"
)

// blocks reports whether fn is still running after a short wait; if it is,
// the returned channel closes when it ends.
func blocks(fn func()) (bool, chan struct{}) {
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
		return false, done
	case <-time.After(20 * time.Millisecond):
		return true, done
	}
}

func released(t *testing.T, done chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal(what)
	}
}

// procFunc is a func as a process.
type procFunc func()

func (f procFunc) Run() { f() }

// inKernel runs each body as a process of a fresh kernel, all started
// together at time zero in the order of their ids, and waits for them to
// end.
func inKernel(bodies map[string]func(a *Agent)) {
	var k Kernel
	k.Pause()
	var agents []*Agent
	for _, id := range slices.Sorted(maps.Keys(bodies)) {
		a := k.Join("q1", nil)
		a.Go(procFunc(func() { bodies[id](a) }))
		agents = append(agents, a)
	}
	k.Resume()
	for _, a := range agents {
		a.Await()
	}
}

// TestKernelLeastKeyRunsFirst: whatever order the host runs the goroutines
// in, the kernel grants the requests of its agents in the order of their
// keys.
func TestKernelLeastKeyRunsFirst(t *testing.T) {
	for run := 0; run < 20; run++ {
		cpu := NewResource("cpu")
		var order []string
		bodies := map[string]func(*Agent){}
		for id, ready := range map[string]Time{"a": 30, "b": 10, "c": 20, "d": 10} {
			bodies[id] = func(a *Agent) {
				q := [1]Request{{Resource: cpu, Stream: id, Ready: ready, Service: 5}}
				a.Submit("q1", q[:])
				order = append(order, id) // the token orders these appends
			}
		}
		inKernel(bodies)
		// b and d tie at 10: the stream breaks the tie.
		if got := [4]string(order); got != [4]string{"b", "d", "c", "a"} {
			t.Fatalf("run %d: grants in order %v, want b d c a", run, order)
		}
	}
}

// TestKernelInboxWakesAtArrival: a frame makes the agent parked on its inbox
// runnable at the frame's arrival time — after an agent whose next request
// is ready earlier, before one whose request is ready later.
func TestKernelInboxWakesAtArrival(t *testing.T) {
	for run := 0; run < 20; run++ {
		cpu := NewResource("cpu")
		inbox := make(chan int, 4)
		var order []string
		submitAt := func(a *Agent, id string, at Time) {
			q := [1]Request{{Resource: cpu, Stream: id, Ready: at, Service: 1}}
			a.Submit("q1", q[:])
			order = append(order, id)
		}
		// All start at time zero, in id order: the receiver parks first,
		// then the sender delivers at 50 and the early and late agents take
		// their turns by key.
		inKernel(map[string]func(*Agent){
			"0recv": func(a *Agent) {
				if v, ok := Recv(a, Inbox, inbox, nil); !ok || v != 7 {
					t.Errorf("Recv = %d, %t", v, ok)
				}
				submitAt(a, "recv", 50)
			},
			"1send":  func(a *Agent) { Send(a, nil, inbox, 7, 50, nil) },
			"2early": func(a *Agent) { submitAt(a, "early", 40) },
			"3late":  func(a *Agent) { submitAt(a, "late", 60) },
		})
		if got := [3]string(order); got != [3]string{"early", "recv", "late"} {
			t.Fatalf("run %d: ran in order %v, want early recv late", run, order)
		}
	}
}

// TestDoorDoneReleasesWaiters: a process that ends hands the token on, and
// Await returns for it — and for an agent failed before it started.
func TestDoorDoneReleasesWaiters(t *testing.T) {
	var order []string
	inKernel(map[string]func(*Agent){
		"a": func(*Agent) { order = append(order, "a") },
		"b": func(*Agent) { order = append(order, "b") },
	})
	if len(order) != 2 {
		t.Errorf("ran %v, want both processes", order)
	}
	var k Kernel
	a := k.Join("q1", nil)
	a.Done()
	if stuck, done := blocks(a.Await); stuck {
		released(t, done, "Await must return for an agent done before it started")
	}
	if a.State() != Done {
		t.Errorf("retired agent reads %v", a.State())
	}
}

// TestDoorUnpacedNeverBlocks: Emit never waits; it publishes the frontier and
// feeds every emitted time to the agent's emit func.
func TestDoorUnpacedNeverBlocks(t *testing.T) {
	var k Kernel
	var emitted []Time
	a := k.Join("q1", func(at Time) { emitted = append(emitted, at) })
	if stuck, done := blocks(func() { a.Emit(Time(Second)); a.Emit(5) }); stuck {
		released(t, done, "Emit must never block")
	}
	// Every emitted time reaches the emit func; the frontier ignores the
	// regression.
	if len(emitted) != 2 || emitted[0] != Time(Second) || emitted[1] != 5 || a.Frontier() != Time(Second) {
		t.Errorf("emitted %v, frontier %v", emitted, a.Frontier())
	}
}

func TestDoorNilAgent(t *testing.T) {
	var a *Agent
	a.Emit(5) // must not panic
	a.Done()
	ran := make(chan struct{})
	a.Go(procFunc(func() { close(ran) }))
	released(t, ran, "a nil agent's Go must run its body")
	ch := make(chan int, 1)
	if !Send(a, nil, ch, 7, 0, nil) {
		t.Fatal("Send on a free channel failed")
	}
	if v, ok := Recv(a, Inbox, ch, nil); !ok || v != 7 {
		t.Errorf("Recv = %d, %t", v, ok)
	}
	q := [1]Request{{Resource: NewResource("cpu"), Ready: 3, Service: 2}}
	a.Submit("q1", q[:])
	if q[0].End != 5 {
		t.Errorf("a nil agent's Submit granted %+v", q[0])
	}
}

// inState waits until a reads s.
func inState(t *testing.T, a *Agent, s State) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); a.State() != s; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("agent reads %v, want %v", a.State(), s)
		}
	}
}

// TestDoorParks: a wait records why the process is parked while it blocks,
// and that it runs again once it returns; a wait that need not block records
// nothing.
func TestDoorParks(t *testing.T) {
	var k Kernel
	a := k.Join("q1", nil)
	ch := make(chan int, 2)
	abort, tick := make(chan struct{}), make(chan struct{})
	a.Go(procFunc(func() {
		if _, ok := Recv(a, Running, ch, abort); ok {
			t.Error("a receive that would not wait received from an empty channel")
		}
		if v, ok := Recv(a, Inbox, ch, abort); !ok || v != 1 {
			t.Errorf("Recv = %d, %t", v, ok)
		}
		if a.State() != Running {
			t.Errorf("after the receive the agent reads %v", a.State())
		}
		Send(a, nil, ch, 2, 0, nil)
		Send(a, nil, ch, 2, 0, nil) // full: the next send waits for credit
		if Send(a, nil, ch, 3, 0, abort) {
			t.Error("Send on an aborted channel reported success")
		}
		if v, ok := Recv(a, Inbox, ch, abort); ok {
			t.Errorf("an aborted receive took %d", v)
		}
		if _, ok := Wait(a, Tick, tick, nil); !ok {
			t.Error("Wait missed the tick")
		}
		for range 2 {
			if v, ok := Recv(a, Inbox, ch, nil); !ok || v != 2 {
				t.Errorf("a value queued before the close reads %d, %t", v, ok)
			}
		}
		if _, ok := Recv(a, Inbox, ch, nil); ok {
			t.Error("Recv on a drained closed channel reports a value")
		}
	}))
	inState(t, a, Inbox)
	Send(nil, nil, ch, 1, 0, nil)
	inState(t, a, Credit)
	close(abort)
	Wake(ch)
	inState(t, a, Tick)
	tick <- struct{}{}
	inState(t, a, Inbox)
	close(ch)
	Wake(ch)
	a.Await()
	if a.State() != Done {
		t.Errorf("an ended process reads %v", a.State())
	}
}

// TestDoorAllocatesNothing: reporting an element and handing the token back
// and forth through two inboxes allocate nothing.
func TestDoorAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ping, pong := make(chan [4]int64, 1), make(chan [4]int64, 1)
	var allocs float64
	inKernel(map[string]func(*Agent){
		"a": func(a *Agent) {
			var at Time
			round := func() {
				at = at.Add(Microsecond)
				a.Emit(at)
				Send(a, nil, ping, [4]int64{int64(at)}, at, nil)
				Recv(a, Inbox, pong, nil)
			}
			round() // the parked table and the run queue reach their size
			allocs = testing.AllocsPerRun(200, round)
			close(ping)
			Wake(ping)
		},
		"b": func(b *Agent) {
			for {
				v, ok := Recv(b, Inbox, ping, nil)
				if !ok {
					return
				}
				b.Emit(Time(v[0]))
				Send(b, nil, pong, v, Time(v[0]), nil)
			}
		},
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per round trip, want 0", allocs)
	}
}
