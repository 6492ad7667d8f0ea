package vtime

import (
	"maps"
	"slices"
	"testing"
	"time"
	"unsafe"

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
// end. If agents is not nil, inKernel fills it with every agent by id before
// any body runs, so a body can name the agent it sends to.
func inKernel(bodies map[string]func(a *Agent), agents map[string]*Agent) {
	var k Kernel
	k.Pause()
	var started []*Agent
	for _, id := range slices.Sorted(maps.Keys(bodies)) {
		a := k.Join("q1", nil)
		a.Go(procFunc(func() { bodies[id](a) }))
		if agents != nil {
			agents[id] = a
		}
		started = append(started, a)
	}
	k.Resume()
	for _, a := range started {
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
		inKernel(bodies, nil)
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
		agents := map[string]*Agent{}
		inKernel(map[string]func(*Agent){
			"0recv": func(a *Agent) {
				if v, ok := Recv(a, Inbox, inbox, nil); !ok || v != 7 {
					t.Errorf("Recv = %d, %t", v, ok)
				}
				submitAt(a, "recv", 50)
			},
			"1send":  func(a *Agent) { Send(a, agents["0recv"], inbox, 7, 50, nil) },
			"2early": func(a *Agent) { submitAt(a, "early", 40) },
			"3late":  func(a *Agent) { submitAt(a, "late", 60) },
		}, agents)
		if got := [3]string(order); got != [3]string{"early", "recv", "late"} {
			t.Fatalf("run %d: ran in order %v, want early recv late", run, order)
		}
	}
}

// TestKernelIdleStandsAtItsEnd: once its last agent is done, a kernel stands
// at the greatest mark it has seen, so an agent started afterwards starts
// there, and the first request of each of its chains is ready no earlier.
func TestKernelIdleStandsAtItsEnd(t *testing.T) {
	var k Kernel
	cpu := NewResource("cpu")
	run := func(body func(a *Agent)) *Agent {
		a := k.Join("q1", nil)
		a.Go(procFunc(func() { body(a) }))
		a.Await()
		return a
	}
	run(func(a *Agent) { a.Emit(70) })
	if now := k.Now(); now != 70 {
		t.Fatalf("idle kernel at %v, want the last emit, 70", now)
	}
	var q [2]Request
	a := run(func(a *Agent) {
		q = [2]Request{{Resource: cpu, Stream: "s", Service: 5}, {Resource: cpu, Stream: "s", Seq: 1, Service: 5}}
		a.Submit("q1", q[:])
	})
	if a.Start() != 70 || q[0].Ready != 70 || q[0].Start != 70 || q[1].End != 80 {
		t.Fatalf("started at %v, chain ready %v and granted [%v, %v), want 70, 70 and [70, 80)", a.Start(), q[0].Ready, q[0].Start, q[1].End)
	}
	if now := k.Now(); now != 70 {
		t.Fatalf("idle kernel at %v after an agent that emitted nothing, want 70", now)
	}
}

// TestDoorDoneReleasesWaiters: a process that ends hands the token on, and
// Await returns for it — and for an agent failed before it started.
func TestDoorDoneReleasesWaiters(t *testing.T) {
	var order []string
	inKernel(map[string]func(*Agent){
		"a": func(*Agent) { order = append(order, "a") },
		"b": func(*Agent) { order = append(order, "b") },
	}, nil)
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
// nothing. The process sends to its own inbox, so it parks on its own
// credit.
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
		Send(a, a, ch, 2, 0, nil)
		Send(a, a, ch, 2, 0, nil) // full: the next send waits for credit
		if Send(a, a, ch, 3, 0, abort) {
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
	Send(nil, a, ch, 1, 0, nil)
	inState(t, a, Credit)
	close(abort)
	Wake(a, ch)
	inState(t, a, Tick)
	tick <- struct{}{}
	inState(t, a, Inbox)
	close(ch)
	Wake(a, ch)
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
	agents := map[string]*Agent{}
	inKernel(map[string]func(*Agent){
		"a": func(a *Agent) {
			b := agents["b"]
			var at Time
			round := func() {
				at = at.Add(Microsecond)
				a.Emit(at)
				Send(a, b, ping, [4]int64{int64(at)}, at, nil)
				Recv(a, Inbox, pong, nil)
			}
			round() // the run queue reaches its size
			allocs = testing.AllocsPerRun(200, round)
			close(ping)
			Wake(b, ping)
		},
		"b": func(b *Agent) {
			a := agents["a"]
			for {
				v, ok := Recv(b, Inbox, ping, nil)
				if !ok {
					return
				}
				b.Emit(Time(v[0]))
				Send(b, a, pong, v, Time(v[0]), nil)
			}
		},
	}, agents)
	if allocs != 0 {
		t.Errorf("%.1f allocations per round trip, want 0", allocs)
	}
}

// TestOutsidersWakeParkedSenders: two callers that are no process drain one
// inbox at once, in the name of its consumer, an agent that never runs. Each
// receive leaves room for a sender parked on the consumer's credit, so each
// must wake it: judged by the length after it, a receive that another one
// overtook looks as if it had not found the inbox full, and the sender stayed
// parked on an empty inbox for good. The race needs two cores; when each
// receive judged by the length, about one round in ten lost the sender
// there, so the test runs 50.
func TestOutsidersWakeParkedSenders(t *testing.T) {
	for range 50 {
		var k Kernel
		a, to := k.Join("q1", nil), k.Join("q1", nil)
		ch := make(chan int, 2)
		a.Go(procFunc(func() {
			for i := range 10_000 {
				Send(a, to, ch, i, 0, nil)
			}
			close(ch)
		}))
		for range 2 {
			go func() {
				for {
					if _, ok := Recv(to, Inbox, ch, nil); !ok {
						return
					}
				}
			}()
		}
		done := make(chan struct{})
		go func() {
			a.Await()
			close(done)
		}()
		released(t, done, "a sender stayed parked on credit while two outsiders drained its inbox")
	}
}

// TestDoorShutWakesSenders: a consumer that shuts its full inbox wakes the
// producer parked on its credit and the caller that is no process waiting
// in Send; both Sends report false, as does every later one, and what the
// inbox held stays there.
func TestDoorShutWakesSenders(t *testing.T) {
	ch, gate := make(chan int, 2), make(chan struct{})
	var sent []bool
	var outsider chan struct{}
	agents := map[string]*Agent{}
	inKernel(map[string]func(*Agent){
		"0cons": func(a *Agent) {
			Wait(a, Tick, gate, nil)
			Shut(a, ch)
		},
		"1prod": func(a *Agent) {
			to := agents["0cons"]
			for i := range 3 {
				sent = append(sent, Send(a, to, ch, i, 0, nil))
			}
			sent = append(sent, Send(a, to, ch, 3, 0, nil))
		},
		"2gate": func(a *Agent) {
			prod, cons := agents["1prod"], agents["0cons"]
			var stuck bool
			stuck, outsider = blocks(func() {
				if Send(nil, cons, ch, 9, 0, nil) {
					t.Error("an outsider's Send to a shut inbox reported true")
				}
			})
			if !stuck {
				t.Error("an outsider's Send to a full inbox did not wait")
			}
			go func() {
				inState(t, prod, Credit)
				close(gate)
			}()
		},
	}, agents)
	released(t, outsider, "an outsider waiting in Send stayed there after Shut")
	if want := []bool{true, true, false, false}; !slices.Equal(sent, want) {
		t.Errorf("Sends reported %v, want %v", sent, want)
	}
	if len(ch) != 2 || <-ch != 0 || <-ch != 1 {
		t.Error("Shut took what the inbox held")
	}
}

// TestDoorKernelsLockApart: each kernel has a lock of its own, so holding
// one does not stop the processes of another from handing frames to each
// other and ending.
func TestDoorKernelsLockApart(t *testing.T) {
	var held Kernel
	held.mu.Lock()
	defer held.mu.Unlock()
	stuck, done := blocks(func() {
		ch := make(chan int, 1)
		agents := map[string]*Agent{}
		inKernel(map[string]func(*Agent){
			"0recv": func(a *Agent) {
				for range 10 {
					Recv(a, Inbox, ch, nil)
				}
			},
			"1send": func(a *Agent) {
				for i := range 10 {
					Send(a, agents["0recv"], ch, i, Time(i), nil)
				}
			},
		}, agents)
	})
	if stuck {
		released(t, done, "a kernel's processes waited for another kernel's lock")
	}
}

// TestDoorAgentStaysSmall: an agent is made per process, so what it keeps to
// name its waker must stay small.
func TestDoorAgentStaysSmall(t *testing.T) {
	if n := unsafe.Sizeof(Agent{}); n > 144 {
		t.Errorf("an agent takes %d bytes, want at most 144", n)
	}
}
