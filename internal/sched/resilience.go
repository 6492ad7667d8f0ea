// Session-level resilience: virtual-time deadlines, transient-admission
// retries, and the policy sweep that enforces both.
//
// The scheduler's policy clock is s.alarms — a monotone virtual time that
// always runs on the engine's own progress: every element any process emits
// is reported through ObserveVTime, raised to that query's progress since its
// first element (core's queryCtx.Advance). A query's progress is counted
// from wherever the clock stood when it started, so a run TTL counts the
// session's own virtual time whatever ran before it, on whichever nodes,
// across Reset; and the clock never reads the wall clock.
//
// A harness may still tick ObserveVTime by hand where time must pass while
// nothing runs — the soak driver's gated rounds expire queued sessions that
// way.
package sched

import (
	"fmt"
	"slices"

	"scsq/internal/core"
	"scsq/internal/vtime"
)

// ObserveVTime implements core.VTimeObserver: it raises the scheduler's
// policy clock to t and, if any armed deadline or retry alarm fired, runs a
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

// VNow implements core.VTimeObserver: the policy clock's current instant.
func (s *Scheduler) VNow() vtime.Time { return s.alarms.Now() }

// NodeDied implements core.CapacityObserver: a node left the pool, so
// re-evaluate admission asynchronously — the head of the queue may now be
// transiently unsatisfiable and should park rather than wait forever behind
// capacity that died. Asynchronous because the notification arrives on
// engine-internal goroutines (the crash listener) whose locks must not nest
// with an admission build.
func (s *Scheduler) NodeDied(cluster string, node int) {
	go s.admit()
}

// sweep is the policy pass run at the top of every admission attempt
// (admitMu held): expire queued and parked sessions past their queue
// deadline, promote parked sessions whose retry backoff elapsed, and tear
// down running sessions past their run deadline. All comparisons are
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
	// Parked sessions: the queue deadline keeps running while parked (a
	// session cannot outlive its TTL by failing admission), and sessions due
	// for retry re-enter the admission queue in priority order. Promotion
	// ignores the queue cap: a parked session already held a queue slot once.
	keepParked := s.parked[:0]
	for _, q := range s.parked {
		switch {
		case q.queueDeadline > 0 && vnow >= q.queueDeadline:
			expired = append(expired, q)
		case vnow >= q.nextRetryV:
			s.enqueueLocked(q)
		default:
			keepParked = append(keepParked, q)
		}
	}
	clear(s.parked[len(keepParked):])
	s.parked = keepParked
	s.gParked.Set(int64(len(s.parked)))
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

// parkForRetry moves a transiently-unsatisfiable claimed session to the
// parked list with an exponential virtual-time backoff, arming an alarm for
// its promotion. It returns false when the session's retry budget is
// exhausted (the caller finalizes it), true when the session was parked —
// or, if a cancel raced the park, finalized Cancelled here (still handled).
func (s *Scheduler) parkForRetry(q *Query) bool {
	q.mu.Lock()
	if q.retries >= s.cfg.AdmissionRetry.MaxRetries {
		q.mu.Unlock()
		return false
	}
	q.retries++
	n := q.retries
	q.mu.Unlock()
	wake := s.alarms.Now().Add(s.cfg.AdmissionRetry.backoff(n))
	s.mu.Lock()
	q.mu.Lock()
	if q.cancelReq {
		// The cancel found the session claimed (mid-build) and left
		// finalization to the admission loop; honor it instead of parking.
		q.mu.Unlock()
		s.mu.Unlock()
		s.finishQueued(q, Cancelled, ErrCancelled, s.mCancelled)
		return true
	}
	q.nextRetryV = wake
	s.parked = append(s.parked, q)
	s.gParked.Set(int64(len(s.parked)))
	q.mu.Unlock()
	s.mu.Unlock()
	s.alarms.Set(wake, q.ID())
	s.mRetried.Inc()
	return true
}

// unparkLocked removes q from the parked list if present. s.mu held.
func (s *Scheduler) unparkLocked(q *Query) bool {
	if i := slices.Index(s.parked, q); i >= 0 {
		s.parked = slices.Delete(s.parked, i, i+1)
		s.gParked.Set(int64(len(s.parked)))
		return true
	}
	return false
}
