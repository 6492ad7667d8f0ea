package vtime

import (
	"math"
	"sync"
	"sync/atomic"
)

// State is where a process stands at its query's door.
type State int32

const (
	Running State = iota // executing, or held back by the horizon
	Inbox                // parked on its inbox, waiting for a frame
	Credit               // parked on a subscriber's full inbox: flow control
	Tick                 // parked on the policy clock's next tick
	Done                 // finished: it holds nobody back
)

func (s State) String() string { return [...]string{"running", "inbox", "credit", "tick", "done"}[s] }

// Door is the one place the processes of a query wait and report progress:
// each is an Agent that reports every element it emits (Emit) and parks only
// in Recv and Send, so the door knows of each whether it runs, where it is
// parked, and the latest virtual time it emitted (its frontier).
//
// Emit also paces: a source the host runs early must not reserve shared
// virtual resources far ahead of its peers, so a paced agent waits while it
// would emit more than the horizon ahead of the slowest live paced agent
// (which never waits). With Resource's earliest-fit backfilling this keeps
// the schedule independent of wall-clock scheduling up to the horizon.
type Door struct {
	horizon Duration
	emit    func(Time)
	mu      sync.Mutex // guards agents and the horizon waits
	cond    sync.Cond
	agents  []*Agent
}

// NewDoor returns a door that holds its paced agents to horizon (a
// non-positive one paces nobody) and hands every emitted time to emit.
func NewDoor(horizon Duration, emit func(Time)) *Door {
	d := &Door{horizon: horizon, emit: emit}
	d.cond.L = &d.mu
	return d
}

// Join adds a running agent at frontier zero; a paced one is held to the
// horizon of the door's other paced agents.
func (d *Door) Join(paced bool) *Agent {
	a := &Agent{door: d, paced: paced}
	d.mu.Lock()
	d.agents = append(d.agents, a)
	d.mu.Unlock()
	return a
}

// Agent is one process at a door. Only the process writes its state and
// frontier, the state only when a wait is about to block, so an element or
// a frame that need not wait takes no lock for it; anyone may read them. A
// nil agent paces and records nothing.
type Agent struct {
	door     *Door
	paced    bool
	state    atomic.Int32
	frontier atomic.Int64
}

func (a *Agent) State() State   { return State(a.state.Load()) }
func (a *Agent) Frontier() Time { return Time(a.frontier.Load()) }

// Emit reports an element emitted at virtual time at: it publishes the
// frontier (regressions are ignored), holds a paced agent to the horizon,
// then hands at to the door's emit func.
func (a *Agent) Emit(at Time) {
	if a == nil {
		return
	}
	d := a.door
	if at > a.Frontier() {
		a.frontier.Store(int64(at))
	}
	if a.paced {
		d.mu.Lock()
		d.cond.Broadcast()
		for d.horizon > 0 && !d.within(a, at) {
			d.cond.Wait()
		}
		d.mu.Unlock()
	}
	d.emit(at)
}

// Done retires the agent: it no longer holds anyone back.
func (a *Agent) Done() {
	if a == nil {
		return
	}
	a.state.Store(int32(Done))
	a.door.mu.Lock()
	a.door.cond.Broadcast()
	a.door.mu.Unlock()
}

// within reports whether a, emitting at t, may go on: it is (tied for) the
// slowest live paced agent, or the slowest is within the horizon of t.
func (d *Door) within(a *Agent, t Time) bool {
	slowest := Time(math.MaxInt64)
	for _, p := range d.agents {
		if p.paced && p.State() != Done {
			slowest = min(slowest, p.Frontier())
		}
	}
	return slowest >= a.Frontier() || t <= slowest.Add(d.horizon)
}

func (a *Agent) park(s State) {
	if a != nil {
		a.state.Store(int32(s))
	}
}

// Recv receives from ch for agent a, like v, ok := <-ch. A closed abort (a
// nil one never fires), then a ready value, is taken without parking — each
// check one non-blocking channel operation; otherwise a parks in state why
// until one comes. ok is false when ch closed or abort fired, and at once if
// nothing is ready and why is Running.
func Recv[T any](a *Agent, why State, ch <-chan T, abort <-chan struct{}) (v T, ok bool) {
	select {
	case <-abort:
		return v, false
	default:
	}
	select {
	case v, ok = <-ch:
		return v, ok
	default:
	}
	if why == Running {
		return v, false
	}
	a.park(why)
	defer a.park(Running)
	select {
	case v, ok = <-ch:
	case <-abort:
	}
	return v, ok
}

// Send sends v on ch for agent a, parked on Credit while ch is full. It
// reports false, not having sent, if abort closes while it waits.
func Send[T any](a *Agent, ch chan<- T, v T, abort <-chan struct{}) bool {
	select {
	case ch <- v:
		return true
	default:
	}
	a.park(Credit)
	defer a.park(Running)
	select {
	case ch <- v:
		return true
	case <-abort:
		return false
	}
}
