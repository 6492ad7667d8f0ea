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
	elements []sqep.Element
	makespan vtime.Time
	err      error
	obs      func(sqep.Element)
}

// SetElementObserver registers fn to be invoked synchronously from Drain's
// consumption loop with each result element as it reaches the client
// manager. The observer takes the elements over: Drain then keeps no copy
// and returns a nil slice (as do Values and One), so a session's rows live
// once, in the observer's buffer. It is how the scheduler streams a
// session's results incrementally (Session.Results, the network serving
// layer) without waiting for the terminal state. It must be set before
// Drain; fn must not call back into the stream.
func (s *ClientStream) SetElementObserver(fn func(sqep.Element)) { s.obs = fn }

// QueryID returns the id of the query this stream consumes ("q1", ...).
func (s *ClientStream) QueryID() string { return s.qc.id }

// OwnQuery declares the stream its query's only holder — a synchronous
// statement, whose caller keeps no Query handle. A Drain that then started no
// process (a catalog read) retires the query as it ends and hands its id back
// if no query was opened since.
func (s *ClientStream) OwnQuery() { s.sole = true }

// Extract returns the client-side stream of process p's output (the
// top-level extract(p) of q).
func (q *Query) Extract(p *SP) (*ClientStream, error) {
	return q.ClientPlan(func(b *PlanBuilder) (sqep.Operator, error) {
		return b.Extract(p)
	})
}

// MergeExtract returns the client-side merged stream of the given processes
// (a top-level merge(...) of q).
func (q *Query) MergeExtract(ps []*SP) (*ClientStream, error) {
	if len(ps) == 0 {
		return nil, errors.New("core: extract of empty process bag")
	}
	return q.ClientPlan(func(b *PlanBuilder) (sqep.Operator, error) {
		return b.Merge(ps)
	})
}

// ClientPlan builds q's result plan, executing in the client manager on the
// front-end cluster. The top-level select expression of a query —
// extract(c), merge(spv(...)), radixcombine(merge({a,b})), ... — compiles to
// such a plan.
func (q *Query) ClientPlan(build Subquery) (*ClientStream, error) {
	qc := q.qc
	e := qc.eng
	node, err := e.env.Node(hw.FrontEnd, e.clientNode)
	if err != nil {
		return nil, err
	}
	qc.charge(node.CPU)
	b := &PlanBuilder{qc: qc, cluster: hw.FrontEnd, node: e.clientNode, spID: qc.id + "/client"}
	root, err := build(b)
	if err != nil {
		return nil, err
	}
	return &ClientStream{
		qc: qc,
		ctx: sqep.Ctx{
			CPU:     node.CPU,
			Cost:    e.env.Cost,
			Files:   e.cfg.Files,
			Sources: e.cfg.Sources,
			Owner:   qc.id,
			ID:      b.spID,
			Cancel:  qc,
		},
		recv: root,
	}, nil
}

// Drain starts every stream process of this stream's query, consumes the
// result stream to completion, waits for the query's RPs to terminate, and
// releases their node leases; the query's edges, metrics and busy time stay
// queryable until it is retired (Query.Retire, Engine.Reset). It returns the
// result elements (none when an element observer took them). Drain is
// idempotent, and touches only its own query: concurrent queries' processes
// and reservations are invisible to it.
func (s *ClientStream) Drain() ([]sqep.Element, error) {
	if s.drained {
		return s.elements, s.err
	}
	s.drained = true

	qc := s.qc
	e := qc.eng
	if err := e.beginDrain(qc); err != nil {
		s.err = err
		return nil, s.err
	}
	sps := qc.snapshot()

	var errs []error
	for _, sp := range sps {
		if err := sp.start(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := s.recv.Open(&s.ctx); err != nil {
		errs = append(errs, err)
	}
	if len(errs) == 0 {
		for {
			el, ok, err := s.recv.Next()
			if err != nil {
				errs = append(errs, err)
				break
			}
			if !ok {
				break
			}
			s.makespan = vtime.MaxTime(s.makespan, el.At)
			if s.obs != nil {
				s.obs(el)
			} else {
				s.elements = append(s.elements, el)
			}
		}
	}
	if err := s.recv.Close(); err != nil {
		errs = append(errs, err)
	}

	// Quiesce: RPs may have dynamically started new RPs while running
	// (paper §2.2), so wait rounds until no new process appears in this
	// query; finish then releases the query's leases, all at once.
	waited := make(map[string]bool, len(sps))
	ran := len(sps) > 0
	for {
		for _, sp := range sps {
			if waited[sp.id] {
				continue
			}
			waited[sp.id] = true
			// WaitResolved follows supervised re-placements: a failure that
			// was absorbed by a replacement is not the SP's outcome.
			if err := sp.WaitResolved(); err != nil {
				errs = append(errs, err)
			}
		}
		var fresh []*SP
		for _, sp := range qc.snapshot() {
			if !waited[sp.id] {
				fresh = append(fresh, sp)
			}
		}
		if len(fresh) == 0 {
			break
		}
		sps, ran = fresh, true
	}
	qc.finish()
	if s.sole && !ran {
		// A pure client plan — a catalog read through Exec — started no
		// process, wired no edge, and nobody else holds its identity: it leaves
		// now rather than at a Reset that live sessions may refuse a polling
		// reader for ever, and hands its id back if no query was opened since.
		qc.retire()
		e.mu.Lock()
		if e.qSeq == qc.seq {
			e.qSeq--
		}
		e.mu.Unlock()
	}

	s.err = errors.Join(errs...)
	return s.elements, s.err
}

// Makespan returns the virtual completion time of the query: the timestamp
// of the last result element delivered to the client manager. It is only
// meaningful after Drain.
func (s *ClientStream) Makespan() vtime.Time { return s.makespan }

// Values returns the drained element values.
func (s *ClientStream) Values() []any {
	out := make([]any, len(s.elements))
	for i, el := range s.elements {
		out[i] = el.Value
	}
	return out
}

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
