package vtime

import (
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

func TestDoorSlowestNeverBlocks(t *testing.T) {
	d := NewDoor(Millisecond, func(Time) {})
	a := d.Join(true)
	b := d.Join(true)
	// a is the slowest (frontier 0): b blocks beyond the horizon.
	stuck, done := blocks(func() { b.Emit(Time(10 * Millisecond)) })
	if !stuck {
		t.Fatal("b should block while a lags")
	}
	// a advancing releases b.
	a.Emit(Time(10 * Millisecond))
	released(t, done, "b not released after a advanced")
	// An agent at (or tied with) the minimum never blocks: both agents are
	// now at 10ms, and stepping within the horizon proceeds immediately.
	if stuck, done := blocks(func() { a.Emit(Time(10*Millisecond + Microsecond)) }); stuck {
		released(t, done, "the slowest agent must not block")
	}
	if a.State() != Running || b.Frontier() != Time(10*Millisecond) {
		t.Errorf("state %v, frontier %v: pacing parks nobody, and the frontier is the emitted time", a.State(), b.Frontier())
	}
}

func TestDoorDoneReleasesWaiters(t *testing.T) {
	d := NewDoor(Millisecond, func(Time) {})
	a := d.Join(true)
	b := d.Join(true)
	stuck, done := blocks(func() { b.Emit(Time(Second)) })
	if !stuck {
		t.Fatal("b should block while a lags")
	}
	a.Done()
	released(t, done, "Done must release waiters")
	if a.State() != Done {
		t.Errorf("retired agent reads %v", a.State())
	}
}

func TestDoorZeroHorizonNeverBlocks(t *testing.T) {
	d := NewDoor(0, func(Time) {})
	a := d.Join(true)
	d.Join(true) // a lagging peer
	if stuck, done := blocks(func() { a.Emit(Time(time.Hour)) }); stuck {
		released(t, done, "a zero horizon must never block")
	}
}

func TestDoorUnpacedNeverBlocks(t *testing.T) {
	var emitted []Time
	d := NewDoor(Millisecond, func(at Time) { emitted = append(emitted, at) })
	d.Join(true) // a lagging source
	a := d.Join(false)
	if stuck, done := blocks(func() { a.Emit(Time(Second)); a.Emit(5) }); stuck {
		released(t, done, "an unpaced agent must never block")
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
	ch := make(chan int, 1)
	if !Send(a, ch, 7, nil) {
		t.Fatal("Send on a free channel failed")
	}
	if v, ok := Recv(a, Inbox, ch, nil); !ok || v != 7 {
		t.Errorf("Recv = %d, %t", v, ok)
	}
}

// TestDoorParks: a wait records why the agent is parked while it blocks, and
// that it runs again once it returns; a wait that need not block records
// nothing.
func TestDoorParks(t *testing.T) {
	a := NewDoor(Millisecond, func(Time) {}).Join(false)
	ch := make(chan int, 1)
	abort := make(chan struct{})

	if _, ok := Recv(a, Running, ch, abort); ok {
		t.Error("a receive that would not wait received from an empty channel")
	}
	stuck, done := blocks(func() {
		if v, ok := Recv(a, Inbox, ch, abort); !ok || v != 1 {
			t.Errorf("Recv = %d, %t", v, ok)
		}
	})
	if !stuck || a.State() != Inbox {
		t.Fatalf("receive on an empty inbox: blocked %t, state %v", stuck, a.State())
	}
	ch <- 1
	released(t, done, "a value must release the receive")
	if a.State() != Running {
		t.Errorf("after the receive the agent reads %v", a.State())
	}

	ch <- 2 // full: the next send waits for credit
	stuck, done = blocks(func() {
		if Send(a, ch, 3, abort) {
			t.Error("Send on an aborted channel reported success")
		}
	})
	if !stuck || a.State() != Credit {
		t.Fatalf("send on a full inbox: blocked %t, state %v", stuck, a.State())
	}
	close(abort)
	released(t, done, "abort must release the send")
	if a.State() != Running {
		t.Errorf("after the send the agent reads %v", a.State())
	}
	if v, ok := Recv(a, Tick, ch, abort); ok {
		t.Errorf("an aborted receive took %d", v)
	}
	if stuck, _ := blocks(func() { Recv(a, Tick, make(chan int), abort) }); stuck {
		t.Error("an aborted receive must not park")
	}
	close(ch)
	if v, ok := Recv(a, Inbox, ch, nil); !ok || v != 2 {
		t.Errorf("a value queued before the close reads %d, %t", v, ok)
	}
	if _, ok := Recv(a, Inbox, ch, nil); ok {
		t.Error("Recv on a drained closed channel reports a value")
	}
}

// TestDoorAllocatesNothing: reporting an element and a wait that does not
// block allocate nothing, paced or not.
func TestDoorAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	d := NewDoor(Millisecond, func(Time) {})
	a, b := d.Join(true), d.Join(false)
	ch := make(chan [4]int64, 1)
	var at Time
	allocs := testing.AllocsPerRun(200, func() {
		at = at.Add(Microsecond)
		a.Emit(at)
		b.Emit(at)
		Send(a, ch, [4]int64{int64(at)}, nil)
		Recv(b, Inbox, ch, nil)
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per element, want 0", allocs)
	}
}
