package core

import (
	"errors"
	"fmt"

	"scsq/internal/carrier"
)

// Supervisor re-places failed stream processes (tentpole layer 3). When a
// recoverable RP — an input-free source, whose stream is a deterministic
// function of its plan — dies of a node failure, the supervisor allocates a
// fresh node via the SP's original allocation sequence (the CNDB skips dead
// nodes), re-compiles the plan, re-dials every recorded wiring into the same
// consumer inboxes, and starts the replacement. The replacement replays its
// stream from offset zero; receivers' offset tracking discards the
// already-ingested prefix, so consumers observe the stream exactly once.
//
// Failures the supervisor cannot absorb — an unrecoverable RP, an exhausted
// restart budget, a re-placement that itself fails — are propagated: every
// consumer inbox of the failed SP is poisoned with a Down frame, so the
// error crosses the SP graph as rp.ErrUpstreamDown instead of wedging
// Wait().
type Supervisor struct {
	eng    *Engine
	budget int // replacements allowed per SP
}

// ErrRestartBudget reports that an SP failed more times than the
// supervision budget allows; the last failure is propagated.
var ErrRestartBudget = errors.New("core: supervision restart budget exhausted")

// ErrUnrecoverable reports a failure of an SP that cannot be re-placed (it
// consumes inputs that its failed incarnation already drained).
var ErrUnrecoverable = errors.New("core: SP not recoverable")

// Restarts reports how many times the SP has been re-placed (counting the
// attempt that exhausted the budget). The count lives on the SP handle, so
// it goes when the query's SP graph does.
func (s *Supervisor) Restarts(sp *SP) int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.restarts
}

// onRPExit runs in the dying RP's exit window: after its door agent
// retired, before its Wait resolves. A successful replacement is swapped
// into the SP before the window closes, so WaitResolved observes it.
func (s *Supervisor) onRPExit(sp *SP, cause error) {
	if cause == nil {
		return
	}
	if !errors.Is(cause, carrier.ErrNodeDown) {
		// Not a node failure (plan error, undecoded bytes, upstream down):
		// nothing to re-place, but downstream must still hear about it in
		// case the Down frames of terminateSubs could not be sent.
		s.poisonDownstream(sp, cause)
		return
	}
	if !sp.recoverable {
		s.poisonDownstream(sp, fmt.Errorf("%w: %s: %v", ErrUnrecoverable, sp.id, cause))
		return
	}
	sp.mu.Lock()
	sp.restarts++
	used := sp.restarts
	sp.mu.Unlock()
	if used > s.budget {
		s.eng.reg.Counter("supervisor.budget_exhausted").Inc()
		s.poisonDownstream(sp, fmt.Errorf("%w (%d restarts): %s: %v", ErrRestartBudget, s.budget, sp.id, cause))
		return
	}
	if err := s.replace(sp); err != nil {
		s.poisonDownstream(sp, fmt.Errorf("core: re-placement of %s failed: %w", sp.id, err))
		return
	}
	s.eng.reg.Counter("supervisor.replacements").Inc()
}

// replace moves sp to a fresh node and resumes it.
func (s *Supervisor) replace(sp *SP) error {
	e := s.eng
	cc := e.coords[sp.cluster]

	oldNode := sp.Node()
	cc.ReleaseFor(sp.qc.id, oldNode)
	cc.Unregister(sp.id)

	node, err := e.place(sp.qc.id, sp.cluster, sp.seq)
	if err != nil {
		return err
	}
	proc, _, err := e.buildProc(sp, node)
	if err != nil {
		cc.ReleaseFor(sp.qc.id, node)
		return err
	}
	// Re-dial every outgoing stream from the new node into the original
	// consumer inboxes. The wirings are re-recorded as they are re-dialed.
	sp.mu.Lock()
	wirings := sp.wirings
	sp.wirings = nil
	sp.mu.Unlock()
	for _, w := range wirings {
		if err := e.wireProducer(sp, proc, node, w); err != nil {
			cc.ReleaseFor(sp.qc.id, node)
			return err
		}
	}

	sp.mu.Lock()
	sp.rp = proc
	sp.node = node
	sp.mu.Unlock()
	cc.Register(proc)
	return proc.Start()
}

// poisonDownstream injects cause into every consumer inbox of sp, as Down
// frames: a failed producer that cannot announce its own death (its node is
// gone) still must not leave consumers blocked on a silent stream.
func (s *Supervisor) poisonDownstream(sp *SP, cause error) {
	s.eng.reg.Counter("supervisor.poisoned").Inc()
	sp.mu.Lock()
	wirings := append([]wiring(nil), sp.wirings...)
	sp.mu.Unlock()
	for _, w := range wirings {
		poisonInbox(w, sp.id, cause)
	}
}
