package vtime

import (
	"math"
	"sync"
	"sync/atomic"
)

// Alarms is a deterministic virtual-time alarm registry: a monotone clock
// plus a set of pending alarms, popped in (time, registration) order as the
// clock advances. It is the timing substrate of the scheduler's resilience
// policies (queue/run deadlines, admission-retry backoff): every expiry
// decision keys off a virtual instant observed through Advance — the
// engine's per-element progress, explicit driver ticks — never off the wall
// clock, so the same sequence of observations fires the same alarms in the
// same order, run after run.
//
// An Alarms value never blocks and never spawns goroutines; it only tells
// the caller which alarms came due. Acting on them is the caller's job.
// Advance is called for every element the engine emits, so an observation
// with nothing due touches two atomics and no lock.
type Alarms struct {
	now  atomic.Int64 // the clock, a Time
	next atomic.Int64 // earliest pending instant; math.MaxInt64 when none

	mu   sync.Mutex
	seq  uint64
	pend []Alarm // sorted by (At, then ID)
}

// Alarm is one registered alarm.
type Alarm struct {
	// ID is the registration handle, unique per Alarms value and issued in
	// registration order — the deterministic tiebreak for alarms sharing an
	// instant.
	ID uint64
	// At is the virtual instant the alarm fires at.
	At Time
	// Tag is an opaque caller label (e.g. a session id), carried back when
	// the alarm fires.
	Tag string
}

// NewAlarms returns an empty registry at virtual time zero.
func NewAlarms() *Alarms {
	a := &Alarms{}
	a.next.Store(math.MaxInt64)
	return a
}

// Now returns the registry's clock: the high-water mark of every instant
// passed to Advance.
func (a *Alarms) Now() Time { return Time(a.now.Load()) }

// Set registers an alarm at virtual instant at and returns its handle. An
// alarm at or before the current clock fires on the next Advance call
// (Advance pops everything due, including at the unmoved clock).
func (a *Alarms) Set(at Time, tag string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq++
	al := Alarm{ID: a.seq, At: at, Tag: tag}
	// Insert keeping (At, ID) order. IDs are issued monotonically, so among
	// equal instants insertion order is registration order and a plain
	// upper-bound scan keeps the slice sorted.
	i := len(a.pend)
	for i > 0 && a.pend[i-1].At > at {
		i--
	}
	a.pend = append(a.pend, Alarm{})
	copy(a.pend[i+1:], a.pend[i:])
	a.pend[i] = al
	a.next.Store(int64(a.pend[0].At))
	return al.ID
}

// Advance raises the clock to t (the clock never rewinds; an older t only
// pops what is already due) and returns every alarm with At <= clock, in
// (At, ID) order.
func (a *Alarms) Advance(t Time) []Alarm {
	now := a.now.Load()
	for int64(t) > now && !a.now.CompareAndSwap(now, int64(t)) {
		now = a.now.Load()
	}
	if a.now.Load() < a.next.Load() {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	clock := a.Now()
	n := 0
	for n < len(a.pend) && a.pend[n].At <= clock {
		n++
	}
	if n == 0 {
		return nil
	}
	fired := make([]Alarm, n)
	copy(fired, a.pend[:n])
	a.pend = append(a.pend[:0], a.pend[n:]...)
	if len(a.pend) == 0 {
		a.next.Store(math.MaxInt64)
	} else {
		a.next.Store(int64(a.pend[0].At))
	}
	return fired
}
