// Session-level resilience: virtual-time deadlines and the policy sweep that
// enforces them.
//
// The scheduler's policy clock is s.alarms — a monotone virtual time that
// always runs on the engine's own progress: the time of every element any
// stream process emits is reported through ObserveVTime, on the kernel's one
// timeline, and the clock never reads the wall clock.
//
// A harness may still tick ObserveVTime by hand where time must pass while
// nothing runs — the soak driver's gated rounds expire queued sessions that
// way.
package sched

import (
	"fmt"

	"scsq/internal/core"
	"scsq/internal/vtime"
)

// ObserveVTime implements core.VTimeObserver: it raises the scheduler's
// policy clock to t and, if any armed deadline alarm fired, runs a
// policy pass synchronously on the caller's goroutine. The engine invokes
// this for every element its processes emit, with no locks held; an
// observation with nothing due and nobody subscribed touches atomics only.
func (s *Scheduler) ObserveVTime(t vtime.Time) {
	before := s.alarms.Now()
	if len(s.alarms.Advance(t)) > 0 {
		s.admitInTurn()
	}
	// Wake live-delta catalog streams (streamof over sys_* tables) when the
	// clock moved. The sends are non-blocking, so a slow or abandoned
	// subscriber cannot back-pressure the emitting process.
	if t > before {
		s.tickSubscribers()
	}
}

// VNow is the policy clock's current instant.
func (s *Scheduler) VNow() vtime.Time { return s.alarms.Now() }

// sweep is the policy pass run at the top of every admission attempt
// (admitMu held): expire queued sessions past their queue deadline, and
// tear down running sessions past their run deadline. All comparisons are
// against the virtual policy clock; with no TTLs armed the pass is a no-op.
func (s *Scheduler) sweep() {
	vnow := s.alarms.Now()
	if vnow == 0 {
		return
	}
	type overrunning struct {
		cq          *core.Query // read under q.mu: finalize clears the field
		runDeadline vtime.Time
	}
	var expired []*Query      // claimed waiting sessions past their queue deadline
	var overrun []overrunning // running sessions whose run deadline just fired
	s.mu.Lock()
	// Pending queue: claim expired sessions by removing them — exactly the
	// claim-by-removal protocol admission and Cancel use, so each session
	// still has exactly one finalizer.
	keep := s.pending[:0]
	for _, q := range s.pending {
		if q.queueDeadline > 0 && vnow >= q.queueDeadline {
			expired = append(expired, q)
		} else {
			keep = append(keep, q)
		}
	}
	clear(s.pending[len(keep):])
	s.pending = keep
	s.gQueued.Set(int64(len(s.pending)))
	// Running sessions: flag the expiry exactly once under q.mu; the
	// teardown itself happens outside the locks because Cancel resolves
	// stream waiters synchronously.
	for _, en := range s.order {
		q := en.q
		if q == nil {
			continue
		}
		q.mu.Lock()
		if (q.state == Admitted || q.state == Running) &&
			q.runDeadline > 0 && vnow >= q.runDeadline && !q.expireReq {
			q.expireReq = true
			overrun = append(overrun, overrunning{q.cq, q.runDeadline})
		}
		q.mu.Unlock()
	}
	s.mu.Unlock()
	for _, q := range expired {
		s.finishQueued(q, Expired,
			fmt.Errorf("%w: queue deadline %v (clock %v)", ErrDeadlineExceeded, q.queueDeadline, vnow), s.mExpired)
	}
	for _, o := range overrun {
		// Through the engine's cancel/poison path: the stream's Drain
		// unwinds and releases the leases exactly once; run() observes
		// expireReq and finalizes the session Expired.
		o.cq.Cancel(fmt.Errorf("%w: run deadline %v (clock %v)", ErrDeadlineExceeded, o.runDeadline, vnow))
	}
}
