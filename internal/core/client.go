package core

import (
	"errors"
	"fmt"

	"scsq/internal/hw"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// ClientStream is the client manager's view of a continuous query's result:
// the top-level extract()/merge() of a CQ, consumed on the front-end
// cluster where the user interacts with SCSQ.
type ClientStream struct {
	qc   *queryCtx // the query this stream consumes; Drain operates on it only
	recv sqep.Operator
	ctx  sqep.Ctx
	// sole marks the stream as its query's only holder (OwnQuery).
	sole bool

	drained  bool
	begun    bool    // the drain got past beginDrain
	errs     []error // what the drain's process met
	elements []sqep.Element
	// start is the kernel's time the drain started at, and last the time of
	// the last element (zero before the first).
	start, last vtime.Time
	err         error
	obs         func(sqep.Element)
}

// SetElementObserver registers fn to be invoked synchronously from Drain's
// consumption loop with each result element as it reaches the client
// manager, lent (sqep.Borrowed): fn copies what it keeps before it returns.
// Drain then keeps no copy and returns a nil slice, as does One. It is how
// the scheduler streams a session's results into its result log without
// waiting for the terminal state. It must be set before Drain; fn must not
// call back into the stream.
func (s *ClientStream) SetElementObserver(fn func(sqep.Element)) { s.obs = fn }

// QueryID returns the id of the query this stream consumes ("q1", ...).
func (s *ClientStream) QueryID() string { return s.qc.id }

// OwnQuery declares the stream its query's only holder — a synchronous
// statement, whose caller keeps no Query handle. A Drain that then started no
// process (a catalog read) retires the query as it ends and hands its id back
// if no query was opened since.
func (s *ClientStream) OwnQuery() { s.sole = true }

// ClientPlan builds q's result plan, executing in the client manager on the
// front-end cluster. The top-level select expression of a query —
// extract(c), merge(spv(...)), radixcombine(merge({a,b})), ... — compiles to
// such a plan.
func (q *Query) ClientPlan(build Subquery) (*ClientStream, error) {
	qc, e := q.qc, q.qc.eng
	// The drain's agent and plan builder are one block; the stream is not
	// in it, so a link or a finished query that still names the agent pins
	// none of the stream's rows.
	blk := new(struct {
		agent vtime.Agent
		b     PlanBuilder
	})
	ctx, err := e.process(qc, hw.FrontEnd, e.clientNode, qc.id+"/client", nil, &blk.agent, &blk.b)
	if err != nil {
		return nil, err
	}
	root, err := build(&blk.b)
	if err != nil {
		return nil, err
	}
	qc.mu.Lock()
	qc.client = ctx.Agent
	qc.mu.Unlock()
	return &ClientStream{qc: qc, recv: root, ctx: ctx}, nil
}

// Start makes the stream's drain a process of the engine's kernel now: it
// takes its first turn — and starts its query's processes — in the kernel's
// order, not when the goroutine that drains it gets to run. Admission calls
// it as it admits the session; Drain starts a stream nobody started. A
// started stream must be drained.
func (s *ClientStream) Start() { s.ctx.Agent.Go((*drain)(s)) }

// drain is a stream's drain as its agent's process (vtime.Process).
type drain ClientStream

// Run starts the query's processes and takes the result stream to its end.
func (d *drain) Run() {
	s := (*ClientStream)(d)
	s.start = s.ctx.Agent.Start()
	qc := s.qc
	if err := qc.eng.beginDrain(qc); err != nil {
		s.errs = append(s.errs, err)
		return
	}
	s.begun = true
	for i, n := 0, qc.handle.SPCount(); i < n; i++ {
		if err := qc.spAt(i).Start(); err != nil {
			s.errs = append(s.errs, err)
		}
	}
	if s.obs != nil {
		sqep.UseValues(s.recv, sqep.Borrowed) // the observer copies each element
	}
	if err := s.recv.Open(&s.ctx); err != nil {
		s.errs = append(s.errs, err)
	}
	if len(s.errs) == 0 {
		for {
			el, ok, err := s.recv.Next()
			if err != nil {
				s.errs = append(s.errs, err)
				break
			}
			if !ok {
				break
			}
			s.ctx.Agent.Emit(el.At)
			s.last = max(s.last, el.At)
			if s.obs != nil {
				s.obs(el)
			} else {
				s.elements = append(s.elements, el)
			}
		}
	}
	if err := s.recv.Close(); err != nil {
		s.errs = append(s.errs, err)
	}
}

// Drain starts every stream process of this stream's query, consumes the
// result stream to completion, waits for the query's RPs to terminate, and
// releases their node leases. The consumption is a process of the engine's
// kernel, like the stream processes (Start). The query's edges, metrics and
// busy time stay queryable until it is retired (Query.Retire,
// Engine.Reset). It returns the result elements (none when an element
// observer took them). Drain is idempotent, and touches only its own query:
// concurrent queries' processes and reservations are invisible to it.
func (s *ClientStream) Drain() ([]sqep.Element, error) {
	if s.drained {
		return s.elements, s.err
	}
	s.drained = true
	s.Start()
	s.ctx.Agent.Await()
	qc, errs := s.qc, s.errs
	if !s.begun {
		s.err = errors.Join(errs...)
		return nil, s.err
	}

	// Quiesce: RPs may have dynamically started new RPs while running
	// (paper §2.2), which join the end of the query's processes; wait on
	// each in turn until none is left. finish then releases the query's
	// leases, all at once.
	ran := 0
	for sp := qc.spAt(0); sp != nil; sp = qc.spAt(ran) {
		ran++
		if err := sp.rp.Wait(); err != nil {
			errs = append(errs, err)
		}
	}
	qc.finish(len(errs) == 0)
	if s.sole && ran == 0 {
		// A pure client plan — a catalog read through Exec — started no
		// process, wired no edge, and nobody else holds its identity: it leaves
		// now rather than at a Reset that live sessions may refuse a polling
		// reader for ever, and hands its id back if no query was opened since.
		qc.handle.RetireRead()
	}

	s.err = errors.Join(errs...)
	return s.elements, s.err
}

// Makespan returns the query's virtual completion time counted from its
// start: the last result element's time minus the kernel's time when the
// drain started, so what ran before does not enter it. Read it after Drain.
func (s *ClientStream) Makespan() vtime.Time { return max(s.last, s.start) - s.start }

// One drains the stream and asserts it produced exactly one element,
// returning its value — the common shape of the paper's measurement
// queries, whose output is a single integer.
func (s *ClientStream) One() (any, error) {
	els, err := s.Drain()
	if err != nil {
		return nil, err
	}
	if len(els) != 1 {
		return nil, fmt.Errorf("core: expected a single result element, got %d", len(els))
	}
	return els[0].Value, nil
}
