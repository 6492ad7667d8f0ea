package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"scsq/internal/carrier"
	"scsq/internal/metrics"
	"scsq/internal/vtime"
)

// ErrQueriesActive is returned by Reset and Close while a query's streams
// are still draining: tearing the engine down under an active stream would
// leave RP goroutines blocked on dead inboxes. Cancel or Wait the active
// queries first (the scheduler's cancel-then-reset does exactly that).
var ErrQueriesActive = errors.New("core: queries active (drain, cancel or wait before Reset/Close)")

// ErrQueryCancelled is the cause planted into a query's processes by
// Query.Cancel; every RP of the cancelled query fails with it and the
// query's Drain surfaces it.
var ErrQueryCancelled = errors.New("core: query cancelled")

// ErrStaleQuery is returned by Drain when the engine was Reset or Closed
// between building the stream and draining it: the query's identity and
// placements are gone, so starting its processes would run them on a
// torn-down engine.
var ErrStaleQuery = errors.New("core: query identity retired (engine Reset or Closed since build)")

// queryCtx is the engine-side scope of one query: the unit of SP/RP
// ownership, vtime attribution, and reservation leasing, and the
// owner of what the query leaves behind — its wired edges, its metric keys,
// the devices it charged. Every SP the engine builds belongs to exactly one
// queryCtx; Cancel, Drain, and crash supervision operate on that query's
// processes and leases only. Whichever exit a query takes, its scope leaves
// in two idempotent steps: finish (the processes are gone, the facts stay
// queryable) and retire (nothing of the query is left).
type queryCtx struct {
	eng *Engine
	id  string // "q1", "q2", ... — the owner tag of leases, metrics, charges
	seq int    // allocation order, which orders Engine.Edges
	// handle is the scope's exported face, handed out by BeginQuery and
	// PlanBuilder.Query: one per scope, so a statement allocates no wrapper.
	handle Query

	// metrics holds the metric blocks of the query's processes.
	metrics *metrics.Scope

	mu     sync.Mutex
	sps    []*SP
	nextID int // per-query RP counter, so ids don't depend on admission order
	edges  []Edge
	// charged lists the devices that may carry busy time under the query's
	// id: the CPUs of its nodes and every stage of the routes it dialed.
	// Repeats are harmless (folding an owner twice is a no-op).
	charged   []*vtime.Resource
	started   bool
	finished  bool
	cancelled bool
	cause     error
	// cancelCh closes when the query is cancelled. Poisoning inboxes only
	// reaches operators blocked on stream frames; client-plan operators
	// parked elsewhere (a live-delta stream waiting on a vtime tick) wait
	// with this channel as their abort, and the cancel interrupts the client
	// plan's agent so it looks at it.
	cancelCh chan struct{}
	client   *vtime.Agent // the client plan's drain, once ClientPlan built it
}

// Done and Cause make a queryCtx the sqep.CancelSignal of its operators:
// the cancel channel and the planted cause, for operators that need an
// out-of-band cancellation signal.
func (qc *queryCtx) Done() <-chan struct{} { return qc.cancelCh }

func (qc *queryCtx) Cause() error {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	return qc.cause
}

func (qc *queryCtx) addSP(sp *SP) {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	qc.sps = append(qc.sps, sp)
}

func (qc *queryCtx) snapshot() []*SP {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	return append([]*SP(nil), qc.sps...)
}

func (qc *queryCtx) newRPID(cluster string) string {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	qc.nextID++
	return qc.id + "/rp-" + cluster + "-" + strconv.Itoa(qc.nextID)
}

// charge records a device the query's operators will be charged on.
func (qc *queryCtx) charge(r *vtime.Resource) {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	qc.charged = append(qc.charged, r)
}

// wired records a dialed connection of the query: its edge, and every stage
// of its route as a device the query's frames are charged on.
func (qc *queryCtx) wired(link *carrier.Link, ed Edge) {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	qc.edges = append(qc.edges, ed)
	for _, st := range link.Stages() {
		qc.charged = append(qc.charged, st.Resource)
	}
}

// finish is the one end-of-query release — a drained or cancelled stream, a
// rolled-back build and retire all come through here: every SP's node lease
// and coordinator registration go, and the SP graph with them, so a second
// call finds nothing to release. Edges, metrics and busy time stay queryable
// until retire. The processes must have resolved or never started.
func (qc *queryCtx) finish() {
	e := qc.eng
	qc.mu.Lock()
	sps := qc.sps
	qc.sps = nil
	if qc.started {
		// Not so a rolled-back build: it never started, and its identity
		// stays open for the next attempt.
		qc.finished = true
	}
	qc.mu.Unlock()
	for _, sp := range sps {
		cc := e.coords[sp.cluster]
		cc.ReleaseFor(qc.id, sp.Node())
		cc.Unregister(sp.id)
	}
}

// retire removes the query from the engine: finish, then its edges are
// dropped, its metric keys folded into the per-prefix retired aggregates
// (metrics.Scope.Fold), its busy time on the devices it charged into
// vtime.RetiredOwner, and its id stops resolving. Totals — counter sums by
// prefix, every resource's Σ owners == BusyTime — are unchanged, and the
// cost is what the query touched, not what the machine has. Retiring twice
// is a no-op: every step finds nothing left to do.
func (qc *queryCtx) retire() {
	qc.finish()
	qc.mu.Lock()
	qc.finished = true
	charged := qc.charged
	qc.charged, qc.edges = nil, nil
	qc.mu.Unlock()
	qc.metrics.Fold()
	for _, r := range charged {
		r.FoldOwner(qc.id)
	}
	e := qc.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.queries[qc.id] == qc {
		delete(e.queries, qc.id)
	}
}

// active reports a query whose streams may still be moving: started by a
// Drain that has not completed yet.
func (qc *queryCtx) active() bool {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	return qc.started && !qc.finished
}

// cancel fails every process of this query (and only this query). The
// failures propagate Down frames through the query's own SP graph, so its
// Drain unwinds, releases the node leases, and reports the cause. Other
// queries' processes, inboxes, and reservations are untouched.
func (qc *queryCtx) cancel(cause error) {
	qc.mu.Lock()
	if qc.finished || qc.cancelled {
		qc.mu.Unlock()
		return
	}
	qc.cancelled = true
	qc.cause = cause
	sps := append([]*SP(nil), qc.sps...)
	client := qc.client
	qc.mu.Unlock()
	close(qc.cancelCh)
	client.Interrupt()
	for _, sp := range sps {
		sp.proc().Fail(cause)
	}
	// Failing an RP only interrupts it between elements; one blocked on a
	// silent inbox (its producers idle or already gone) would never notice.
	// Poison every consumer inbox of the query's streams — including the
	// client's — so each receiver observes the cancellation as a Down frame
	// and the Drain unwinds.
	for _, sp := range sps {
		sp.mu.Lock()
		wirings := append([]wiring(nil), sp.wirings...)
		sp.mu.Unlock()
		for _, w := range wirings {
			poisonInbox(w.inbox, sp.id, cause)
		}
	}
}

// Query is the exported per-query handle, and the only way to build: it is
// created by BeginQuery, populated by its own SP/SPV and ClientPlan (inside
// BuildAs; a running operator grows its query through PlanBuilder.Query),
// finished by the stream's Drain (or rolled back by a failed BuildAs), and
// removed by Retire.
type Query struct {
	qc *queryCtx
}

// ID returns the engine-assigned query id ("q1", "q2", ...).
func (q *Query) ID() string { return q.qc.id }

// Metrics returns the query's metrics scope: what the engine's processes and
// the scheduler count per query lives there, and folds when it is retired.
func (q *Query) Metrics() *metrics.Scope { return q.qc.metrics }

// Cancel fails every stream process of this query with ErrQueryCancelled
// (wrapped with cause if non-nil). The query's Drain observes the failure,
// releases its node leases, and returns; concurrent queries are unaffected.
// Cancelling a finished query is a no-op.
func (q *Query) Cancel(cause error) {
	if cause == nil {
		cause = ErrQueryCancelled
	} else if !errors.Is(cause, ErrQueryCancelled) {
		cause = fmt.Errorf("%w: %w", ErrQueryCancelled, cause)
	}
	q.qc.cancel(cause)
}

// SPCount returns how many stream processes the query holds (none once it
// finished).
func (q *Query) SPCount() int {
	q.qc.mu.Lock()
	defer q.qc.mu.Unlock()
	return len(q.qc.sps)
}

// BeginQuery allocates a fresh query identity. Pair with BuildAs to construct
// the query's SP graph under that identity.
func (e *Engine) BeginQuery() (*Query, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, errors.New("core: engine closed")
	}
	e.qSeq++
	qc := &queryCtx{
		eng:      e,
		id:       string(strconv.AppendInt(append(make([]byte, 0, 24), 'q'), int64(e.qSeq), 10)),
		seq:      e.qSeq,
		cancelCh: make(chan struct{}),
		// A two-process query charges about a dozen devices: room for those
		// up front spares the small scope four regrowths.
		charged: make([]*vtime.Resource, 0, 16),
	}
	qc.handle.qc = qc
	qc.metrics = e.reg.OpenScope(qc.id)
	e.queries[qc.id] = qc
	return &qc.handle, nil
}

// BuildAs is the bracket q's SP graph is built in: build places q's processes
// and client plan through q itself, and nothing is ambient. Builds are
// serialized across the engine (placement must see a consistent node pool),
// which is what makes admission deterministic. On error the query's partial
// placements are rolled back — its nodes released, its leases dropped — so a
// failed build holds nothing.
func (e *Engine) BuildAs(q *Query, build func() error) error {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	err := build()
	if err != nil {
		e.rollbackQuery(q.qc, err)
	}
	return err
}

// rollbackQuery undoes a failed build: failing the query's (unstarted)
// processes, releasing its node leases, and rewinding its per-query state so
// the same identity can attempt another build later (the scheduler re-tries
// a queued query when capacity frees up). The identity itself stays
// registered; Retire discards it for good.
func (e *Engine) rollbackQuery(qc *queryCtx, cause error) {
	for _, sp := range qc.snapshot() {
		sp.proc().Fail(fmt.Errorf("core: build rolled back: %w", cause))
	}
	qc.finish()
	qc.mu.Lock()
	qc.nextID = 0
	qc.mu.Unlock()
}

// Retire removes a query that is not running from the engine: one that
// never ran (a rejected or cancelled-while-queued admission), or a finished
// one nobody may ask about by id any more (a session leaving the scheduler's
// finished window). Its leases and registrations are released, its edges
// dropped, its metrics and per-device busy time folded into the retired
// aggregates. Retiring twice is a no-op.
func (q *Query) Retire() { q.qc.retire() }

// LeaseCount sums the node reservations the query holds across all cluster
// CNDBs — zero once the query drained or was cancelled.
func (e *Engine) LeaseCount(qid string) int {
	n := 0
	for _, cc := range e.coords {
		n += cc.DB().LeaseCount(qid)
	}
	return n
}

// allSPs snapshots every query's stream processes — the engine-wide view
// crash handling needs (a node failure hits all tenants resident on it).
func (e *Engine) allSPs() []*SP {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []*SP
	for _, qc := range e.queries {
		out = append(out, qc.snapshot()...)
	}
	return out
}

// activeQueriesLocked counts queries whose streams may still be moving.
// e.mu must be held, which makes the count atomic with teardown decisions
// against beginDrain (lock order: e.mu then qc.mu).
func (e *Engine) activeQueriesLocked() int {
	n := 0
	for _, qc := range e.queries {
		if qc.active() {
			n++
		}
	}
	return n
}

// beginDrain gates a stream start against engine teardown: it marks the
// query started under e.mu — the same lock Close and Reset hold while
// verifying no query is active — so a Drain either wins the race (and the
// teardown returns ErrQueriesActive) or observes the teardown and fails
// fast with ErrStaleQuery instead of starting RPs on a dead engine.
func (e *Engine) beginDrain(qc *queryCtx) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.queries[qc.id] != qc {
		return ErrStaleQuery
	}
	qc.mu.Lock()
	qc.started = true
	qc.mu.Unlock()
	return nil
}

// QueryScheduler is the engine's hook to an attached multi-tenant scheduler
// (internal/sched implements it). The indirection exists because the
// scheduler builds on the SCSQL evaluator, which builds on this package: the
// engine can only know the scheduler by interface.
type QueryScheduler interface {
	// CancelQuery cancels the identified session.
	CancelQuery(id string) error
}

// VTimeObserver is optionally implemented by an attached scheduler whose
// policy clock (deadlines, retry backoff, live sys_* streams) runs on
// virtual time. The clock runs on the engine's own progress, always: the
// time of every element any stream process emits is reported, on the
// kernel's one timeline (observe). No decision reads the wall clock.
type VTimeObserver interface {
	ObserveVTime(t vtime.Time)
}

// observe is the emit func of every stream process's agent: the element's
// time goes to the attached scheduler's policy clock as it is. The feed
// takes no lock.
func (e *Engine) observe(at vtime.Time) {
	if p := e.clock.Load(); p != nil {
		(*p).ObserveVTime(at)
	}
}

// CapacityObserver is optionally implemented by an attached scheduler that
// reacts to cluster capacity changes: node deaths shrink the pool (queued
// work may now be unsatisfiable, or worth shedding), and the engine notifies
// the scheduler so it can re-evaluate instead of waiting for the next
// submission.
type CapacityObserver interface {
	NodeDied(cluster string, node int)
}

// SetQueryScheduler attaches a scheduler to the engine, making it visible
// to SCSQL's cancel() function (its sessions are read through the sys_sessions
// table it registers). If the scheduler implements VTimeObserver, the
// engine's progress drives its policy clock from here on; attaching nil (or a
// non-observer) detaches the feed.
func (e *Engine) SetQueryScheduler(s QueryScheduler) {
	e.mu.Lock()
	e.sched = s
	e.mu.Unlock()
	if vo, ok := s.(VTimeObserver); ok {
		e.clock.Store(&vo)
	} else {
		e.clock.Store(nil)
	}
}

// Scheduler returns the attached query scheduler, or nil.
func (e *Engine) Scheduler() QueryScheduler {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sched
}
