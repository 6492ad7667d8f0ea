// Package sched is the multi-tenant query scheduler: it turns the
// single-query SCSQ engine into a system that runs many SCSQL sessions
// concurrently. Each submitted statement becomes a query session with a
// lifecycle (queued → admitted → running → done/failed/cancelled); an
// admission controller reserves compute nodes through the engine's CNDB
// allocation sequences before a query may start, queues queries whose
// sequences cannot currently be satisfied, and admits them deterministically
// — FIFO within priority — as completing queries release their leases.
//
// Determinism contract: admission order is a pure function of the submission
// order and priorities, never of goroutine timing. Builds are serialized by
// the engine (core.BuildAs — a session's build and a synchronous statement's
// alike; there is no other way to build), so the node pool each admission
// sees is exactly the pool left by the previously admitted queries. Virtual-time results of
// an admitted query depend only on which queries run concurrently with it,
// not on wall-clock interleaving — that is the engine's virtual-time
// contract, which the scheduler preserves by never injecting wall time into
// any decision.
//
// Catalog reads (scsql.CatalogRead: `select sys_sessions();`, count(sys_rps()),
// ...) lease no node and are not admitted at all: Submit runs them at once, so the system
// stays readable when it is congested, and they leave the table as they end.
//
// Bounded history: the session table holds the live sessions plus the rows
// of the last finishedWindow finished ones. Finalization swaps a session's
// line in the table for its terminal row (id, state, priority, statement,
// waits): the table keeps no *Query of a finished session, so its
// result log, error and makespan live exactly as long as a handle to it —
// the submitter's, a serving pump's — and no longer. When a row leaves the
// window its engine scope is retired (core.Query.Retire) and the id stops
// resolving.
package sched

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scsq/internal/cndb"
	"scsq/internal/core"
	"scsq/internal/metrics"
	"scsq/internal/place"
	"scsq/internal/scsql"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// State is a query session's lifecycle state.
type State int

// Session lifecycle. Queued, Admitted and Running are live states; Done,
// Failed and Cancelled are final.
const (
	Queued    State = iota + 1 // parsed, waiting for node reservations
	Admitted                   // nodes reserved, SP graph built, about to stream
	Running                    // stream draining
	Done                       // completed, result available
	Failed                     // build or runtime error
	Cancelled                  // cancelled by the user (queued or mid-stream)
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Admitted:
		return "admitted"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	}
	return "unknown"
}

// Final reports whether the state is terminal.
func (s State) Final() bool {
	switch s {
	case Done, Failed, Cancelled:
		return true
	}
	return false
}

// Scheduler errors.
var (
	// ErrQueueFull is returned by Submit when the admission queue is at
	// capacity.
	ErrQueueFull = errors.New("sched: admission queue full")
	// ErrUnknownQuery is returned for ids the session table does not hold:
	// never created, or finished long enough ago to have left the window.
	ErrUnknownQuery = errors.New("sched: unknown query")
	// ErrQueryFinished is returned by Cancel for a session already in a final
	// state whose row the table still holds.
	ErrQueryFinished = errors.New("sched: query already finished")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("sched: scheduler closed")
	// ErrUnsatisfiable is returned (wrapped around ErrUnsatisfiablePlan and
	// cndb.ErrNoAvailableNode) when a query's allocation sequence cannot be
	// satisfied even on an otherwise idle system — queueing it would block
	// the queue forever.
	ErrUnsatisfiable = errors.New("sched: allocation sequence unsatisfiable")
	// ErrCancelled aliases the engine's cancellation cause for callers that
	// only import sched.
	ErrCancelled = core.ErrQueryCancelled
	// ErrUnsatisfiablePlan says why a session is ErrUnsatisfiable: the
	// allocation sequence exceeds what the topology offers — its nodes do
	// not exist, or are dead, which no node comes back from — so no amount
	// of waiting helps.
	ErrUnsatisfiablePlan = errors.New("sched: plan exceeds topology (never satisfiable)")
)

// Config configures New. Its zero value is the default scheduler: a
// 64-session admission queue and greedy placement; each field left zero keeps its default.
type Config struct {
	// QueueCap bounds the number of queued (not yet admitted) sessions;
	// Submit returns ErrQueueFull beyond it (zero: 64; negative: unbounded).
	QueueCap int
	// Placement attaches a cost-model placement planner to the engine for
	// the lifetime of this scheduler: admissions are placed to maximize
	// estimated aggregate throughput across live sessions instead of
	// greedily walking the allocation sequence. nil is greedy placement; a
	// scheduler attached without a planner removes any previously installed
	// one, restoring the historic greedy placement.
	Placement *place.Config
}

// Option configures New. A Config is one: each of its non-zero fields
// overrides what the options before it set.
type Option interface{ apply(*Config) }

func (c Config) apply(dst *Config) {
	dst.QueueCap = cmp.Or(c.QueueCap, dst.QueueCap)
	dst.Placement = cmp.Or(c.Placement, dst.Placement)
}

// SubmitConfig configures one Submit. Its zero value is a priority-0
// session.
type SubmitConfig struct {
	// Priority is the session's admission priority (higher admits first;
	// zero: 0). Within a priority level admission is FIFO.
	Priority int
}

// SubmitOption configures one Submit. A SubmitConfig is one: each of its
// non-zero fields overrides what the options before it set.
type SubmitOption interface{ apply(*SubmitConfig) }

func (c SubmitConfig) apply(dst *SubmitConfig) {
	dst.Priority = cmp.Or(c.Priority, dst.Priority)
}

// finishedWindow is how many finished sessions the session table keeps rows
// of, in finalization order, for sys_sessions and sys_metrics('@qid'); the
// oldest leaves as the next one finishes.
const finishedWindow = 256

// entry is one session's line in the session table. While the session is
// live the line reaches it; finalize swaps that for the session's terminal
// row, so the table holds nothing of what a finished session returned.
type entry struct {
	q   *Query      // the live session; nil once finished
	row Info        // the finished session's row (Nodes is read at List)
	cq  *core.Query // the session's engine scope, retired when the line leaves the window
}

// Scheduler multiplexes SCSQL query sessions onto one engine.
type Scheduler struct {
	eng *core.Engine
	ev  *scsql.Evaluator

	cfg     Config         // defaults filled in
	planner *place.Planner // built in installPlanner when cfg.Placement is set

	// clock is the scheduler's virtual policy clock, a vtime.Time: raised to
	// every element time the engine's processes emit (ObserveVTime) and to
	// the kernel's time at each admission, never lowered, never read from
	// the wall clock. It dates sys_sessions' age_ns and paces the live
	// streamof(sys_*) streams.
	clock atomic.Int64

	// admitMu serializes admission attempts; the build itself is further
	// serialized engine-wide by core.BuildAs.
	admitMu sync.Mutex

	mu       sync.Mutex
	closed   bool
	seq      int
	table    map[string]*entry // live sessions and the finished window, by id
	order    []*entry          // the same lines in submission order, for List
	finished []*entry          // the finished window, oldest first
	pending  []*Query          // admission queue: priority desc, then submission asc
	running  int
	live     int // sessions in the table not yet finalized

	mSubmitted, mAdmitted, mCompleted *metrics.Counter
	mFailed, mCancelled, mRejected    *metrics.Counter
	gQueued, gRunning                 *metrics.Gauge

	// subMu guards the virtual-time tick subscribers (see SubscribeVTime in
	// syscat.go). A separate mutex: the progress feed must never contend
	// with s.mu, and cancel must never race close against send. nsubs
	// mirrors len(subs) so the feed skips the lock while nobody listens.
	subMu    sync.Mutex
	subs     map[chan struct{}]*vtime.Agent // tick channel → its live stream
	nsubs    atomic.Int32
	segments segmentPool // the result logs' read segments (results.go)
}

// New builds a scheduler over eng, evaluating statements against cat (nil
// for a fresh catalog), and attaches it to the engine, whose progress drives
// its policy clock and whose streamof(sys_*) streams it paces.
func New(eng *core.Engine, cat *scsql.Catalog, opts ...Option) *Scheduler {
	s := &Scheduler{
		eng:   eng,
		ev:    scsql.NewEvaluator(eng, cat),
		table: make(map[string]*entry),
	}
	for _, o := range opts {
		o.apply(&s.cfg)
	}
	s.cfg.QueueCap = cmp.Or(s.cfg.QueueCap, 64)
	reg := eng.Metrics()
	s.mSubmitted = reg.Counter("sched.submitted")
	s.mAdmitted = reg.Counter("sched.admitted")
	s.mCompleted = reg.Counter("sched.completed")
	s.mFailed = reg.Counter("sched.failed")
	s.mCancelled = reg.Counter("sched.cancelled")
	s.mRejected = reg.Counter("sched.rejected")
	s.gQueued = reg.Gauge("rt.sched.queued")
	s.gRunning = reg.Gauge("rt.sched.running")
	eng.SetQueryScheduler(s)
	s.installPlanner()
	s.registerSysSessions()
	return s
}

// Catalog returns the catalog Submit's statements are evaluated against —
// shared with any interactive evaluator over the same engine.
func (s *Scheduler) Catalog() *scsql.Catalog { return s.ev.Catalog() }

// Query is one scheduled session.
type Query struct {
	s   *Scheduler
	id  string
	seq int
	src string
	// reader marks a catalog read (scsql.CatalogRead): it leases no node, so
	// it runs without admission and, as it ends, leaves the session table and
	// hands its id back if no query was opened since.
	reader bool

	sub SubmitConfig // fixed at Submit

	mu        sync.Mutex
	state     State
	cancelReq bool
	enterV    vtime.Time // policy-clock instant the current state was entered
	// stmt and stream reach the session's plan and SP graph; finalize drops
	// both. cq is the session's engine scope, retired when the session leaves
	// the finished window.
	stmt      *scsql.Statement
	cq        *core.Query
	gNodes    *metrics.Gauge // sched.nodes.<id>, taken at admission
	stream    *core.ClientStream
	err       error
	makespan  vtime.Time
	submitted time.Time
	admitWait time.Duration
	done      chan struct{}

	// res holds the result elements the drain delivered and no read has
	// taken yet — their only copy (results.go). Lazily built.
	resOnce sync.Once
	res     *resultsState
}

// ID returns the engine-assigned session id ("q1", "q2", ...). It tags the
// session's RPs, leases, vtime charges and metrics.
func (q *Query) ID() string { return q.id }

// The per-session gauges, keyed by the session's id in its engine scope (they
// fold with the query's own metrics when the session is retired).
var (
	nodesFamily = &metrics.Family{Gauges: []string{"sched.nodes."}}
	waitFamily  = &metrics.Family{Gauges: []string{metrics.RTPrefix + "sched.admission_wait_us."}}
)

// Statement returns the submitted SCSQL source.
func (q *Query) Statement() string { return q.src }

// State returns the session's current lifecycle state.
func (q *Query) State() State {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.state
}

// Done returns a channel closed when the session reaches a final state.
func (q *Query) Done() <-chan struct{} { return q.done }

// Wait blocks until the session reaches a final state and returns, in a
// slice of the caller's own, the result elements no read has taken, and the
// session's terminal error (nil elements for def statements and sessions
// cancelled before running).
func (q *Query) Wait() (out []sqep.Element, err error) {
	<-q.done
	for els, ok := []sqep.Element(nil), true; ok; out = append(out, els...) {
		els, ok, err = q.read(-1)
	}
	return out, err
}

// Err returns the session's terminal error, nil while live or Done.
func (q *Query) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// Makespan returns the virtual completion time of the session's stream
// (zero until Done).
func (q *Query) Makespan() vtime.Time {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.makespan
}

// AdmissionWait returns how long the session waited between submission and
// admission (wall clock; zero until admitted).
func (q *Query) AdmissionWait() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.admitWait
}

// Cancel cancels the session: a queued session is removed from the admission
// queue; an admitted or running one has its stream processes failed, which
// unwinds its Drain and releases its node leases without perturbing other
// sessions.
func (q *Query) Cancel() error { return q.s.Cancel(q.ID()) }

// Nodes returns how many node reservations the session currently holds.
func (q *Query) Nodes() int { return q.s.eng.LeaseCount(q.ID()) }

// Submit parses src and schedules it. Syntax errors are returned
// synchronously. Function definitions execute immediately (they touch only
// the catalog) and return a session already in Done; catalog reads start
// immediately (they lease no node). Every other query statement enters
// the admission queue and is admitted as soon as its allocation sequences
// can be satisfied, in FIFO-within-priority order.
func (s *Scheduler) Submit(src string, opts ...SubmitOption) (*Query, error) {
	stmt, err := scsql.Parse(src)
	if err != nil {
		return nil, err
	}
	var cfg SubmitConfig
	for _, o := range opts {
		o.apply(&cfg)
	}
	reader := scsql.CatalogRead(stmt, s.eng.SystemCatalog())
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if stmt.Query != nil && !reader && s.fullLocked() {
		// Fast-path rejection; the authoritative decision is re-made in the
		// enqueue critical section below.
		s.mu.Unlock()
		s.mRejected.Inc()
		return nil, fmt.Errorf("%w (cap %d)", ErrQueueFull, s.cfg.QueueCap)
	}
	s.mu.Unlock()

	cq, err := s.eng.BeginQuery()
	if err != nil {
		return nil, err
	}
	q := &Query{
		s:         s,
		id:        cq.ID(),
		sub:       cfg,
		src:       src,
		reader:    reader,
		stmt:      stmt,
		cq:        cq,
		state:     Queued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}

	// A definition touches only the catalog and a catalog read leases no node:
	// neither has anything to be admitted for, so both run here, whatever the
	// queue holds.
	direct := stmt.Def != nil || reader
	if stmt.Def != nil {
		if _, err := s.ev.ExecStatement(stmt); err != nil {
			cq.Retire()
			return nil, err
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cq.Retire()
		return nil, ErrClosed
	}
	if !direct && s.fullLocked() {
		// Re-check in the critical section that enqueues: the early check
		// above is only a fast path, and concurrent Submits may have filled
		// the queue while this one was in BeginQuery.
		s.mu.Unlock()
		cq.Retire()
		s.mRejected.Inc()
		return nil, fmt.Errorf("%w (cap %d)", ErrQueueFull, s.cfg.QueueCap)
	}
	s.seq++
	q.seq = s.seq
	en := &entry{q: q, cq: cq}
	s.table[q.id] = en
	s.order = append(s.order, en)
	s.live++
	if direct {
		s.mu.Unlock()
		s.mSubmitted.Inc()
		if stmt.Def != nil {
			cq.Retire()
			s.mCompleted.Inc()
			s.finalize(q, Done, nil)
		} else if err := s.buildInTurn(q); err != nil {
			s.finishQueued(q, Failed, err, s.mFailed)
		} else {
			// Not counted as running: a reader can neither delay an admission
			// nor change how an unsatisfiable head is classified.
			go s.run(q)
		}
		return q, nil
	}
	q.enterV = s.now()
	s.enqueueLocked(q)
	s.mu.Unlock()
	s.mSubmitted.Inc()
	s.admit()
	return q, nil
}

// fullLocked reports whether the admission queue is at its cap. s.mu held.
func (s *Scheduler) fullLocked() bool {
	return s.cfg.QueueCap > 0 && len(s.pending) >= s.cfg.QueueCap
}

// enqueueLocked inserts q into the admission queue keeping it sorted by
// priority (descending) then submission sequence (ascending). s.mu held.
func (s *Scheduler) enqueueLocked(q *Query) {
	i := sort.Search(len(s.pending), func(i int) bool {
		p := s.pending[i]
		if p.sub.Priority != q.sub.Priority {
			return p.sub.Priority < q.sub.Priority
		}
		return p.seq > q.seq
	})
	s.pending = append(s.pending, nil)
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = q
	s.gQueued.Set(int64(len(s.pending)))
}

// unqueueLocked removes q from the admission queue if present. s.mu held.
// Like every removal from the queue, it zeroes the slot
// it vacates: a backing array must not keep a finished session reachable.
func (s *Scheduler) unqueueLocked(q *Query) bool {
	if i := slices.Index(s.pending, q); i >= 0 {
		s.pending = slices.Delete(s.pending, i, i+1)
		s.gQueued.Set(int64(len(s.pending)))
		return true
	}
	return false
}

// admit drives the admission loop: while the head of the queue can be built
// (its allocation sequences satisfied against the current node pool), build
// it, reserve its nodes, and start it running. A head whose sequences cannot
// currently be satisfied blocks the queue — strict FIFO-within-priority, so
// admission order is deterministic and small queries cannot starve a large
// one — unless the system is idle, in which case the sequence can never be
// satisfied and the query is rejected.
//
// admit takes a turn from the kernel for the loop, like a process: it pauses
// the kernel, which waits for the holder to park, so no process runs while
// sessions are built and started. A process must not call it. The policy
// clock first rises to the kernel's time, where a session starts.
func (s *Scheduler) admit() {
	k := s.eng.Env().Kernel()
	k.Pause()
	defer k.Resume()
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	s.raise(k.Now())
	for {
		s.mu.Lock()
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		// Claim the head by removing it from the queue before touching it.
		// A concurrent Cancel of a queued session then either still finds it
		// in the queue (removes it and finalizes it itself) or finds it
		// claimed (sets cancelReq and leaves finalization to this loop) —
		// never both, so each session is finalized exactly once.
		q := s.pending[0]
		s.pending = slices.Delete(s.pending, 0, 1)
		s.gQueued.Set(int64(len(s.pending)))
		idle := s.running == 0
		s.mu.Unlock()

		q.mu.Lock()
		cancelled := q.cancelReq
		q.mu.Unlock()
		if cancelled {
			// Cancelled while queued (between admit iterations).
			s.finishQueued(q, Cancelled, ErrCancelled, s.mCancelled)
			continue
		}

		err := s.build(q)
		if errors.Is(err, cndb.ErrNoAvailableNode) {
			if idle {
				// Nothing else holds leases, so waiting for a completion
				// cannot help: the plan exceeds the live topology.
				s.finishQueued(q, Failed, fmt.Errorf("%w: %w: %w", ErrUnsatisfiable, ErrUnsatisfiablePlan, err), s.mRejected)
				continue
			}
			// Head-of-line: put the claimed session back and wait for a
			// completion to free nodes. The cancelReq re-check is atomic
			// with the re-insert (both locks held): a Cancel that arrived
			// during the build found the session claimed and relies on this
			// loop to finalize it; a Cancel after the re-insert finds it
			// queued again and finalizes it itself.
			s.mu.Lock()
			q.mu.Lock()
			if q.cancelReq {
				q.mu.Unlock()
				s.mu.Unlock()
				s.finishQueued(q, Cancelled, ErrCancelled, s.mCancelled)
				continue
			}
			s.enqueueLocked(q)
			q.mu.Unlock()
			s.mu.Unlock()
			return
		}
		if err != nil {
			s.finishQueued(q, Failed, err, s.mFailed)
			continue
		}

		s.mu.Lock()
		s.running++
		s.gRunning.Set(int64(s.running))
		s.mu.Unlock()

		q.mu.Lock()
		q.state = Admitted
		q.admitWait = time.Since(q.submitted)
		q.enterV = s.now()
		wait := q.admitWait
		cancelled = q.cancelReq
		q.mu.Unlock()

		s.mAdmitted.Inc()
		q.cq.Metrics().Block(waitFamily, q.id).Gauge(0).Set(wait.Microseconds())
		q.gNodes = q.cq.Metrics().Block(nodesFamily, q.id).Gauge(0)
		q.gNodes.Set(int64(q.cq.SPCount()))
		if cancelled {
			// Cancel raced the build: unwind through the normal run path so
			// the leases release exactly once.
			q.cq.Cancel(nil)
		}
		// The stream drains from here, in the kernel's order: the session
		// runs from its admission.
		q.mu.Lock()
		q.state, q.enterV = Running, s.now()
		q.mu.Unlock()
		q.stream.Start()
		go s.run(q)
	}
}

// buildInTurn is build in a turn taken from the kernel, as admit takes one.
func (s *Scheduler) buildInTurn(q *Query) error {
	k := s.eng.Env().Kernel()
	k.Pause()
	defer k.Resume()
	return s.build(q)
}

// build constructs q's SP graph under its engine identity. On error the
// engine has already rolled back q's placements and leases.
func (s *Scheduler) build(q *Query) error {
	return s.eng.BuildAs(q.cq, func() error {
		stream, err := s.ev.Build(q.cq, q.stmt.Query)
		if err != nil {
			return err
		}
		// Before the stream starts: admission starts it, and its drain may
		// take its first turn before run does.
		stream.SetElementObserver(q.pushResult)
		q.mu.Lock()
		q.stream = stream
		q.mu.Unlock()
		return nil
	})
}

// finishQueued finalizes a session that never ran: retires its engine
// identity, records the outcome, and bumps exactly one outcome counter
// (a rejected session counts as rejected, not also failed). The caller
// must hold the session's claim — it is no longer in the admission queue.
func (s *Scheduler) finishQueued(q *Query, st State, err error, c *metrics.Counter) {
	q.cq.Retire()
	s.finalize(q, st, err)
	c.Inc()
}

// finalize publishes q's terminal state — exactly once per session, by
// whoever holds its claim — and moves its line from the live sessions into
// the finished window as a row. The session lets go of its statement and
// stream (the whole SP graph), and the table lets go of the session: what a
// held handle can still ask for (state, error, makespan, results) lives with
// the handle. The line that thereby leaves the window — a reader's, at once
// — is forgotten by id here, and its engine scope retired; a reader's id
// goes back once its line is gone, so no two lines ever share one.
func (s *Scheduler) finalize(q *Query, st State, err error) {
	q.mu.Lock()
	q.state = st
	q.err = err
	q.stmt, q.stream = nil, nil
	row := q.rowLocked(0)
	q.mu.Unlock()

	var evicted *entry
	s.mu.Lock()
	s.live--
	en := s.table[q.id]
	en.q, en.row = nil, row
	if q.reader {
		// A reader takes no place in the window — polling the catalog must
		// not push the sessions it asks about out of it.
		evicted = en
	} else if s.finished = append(s.finished, en); len(s.finished) > finishedWindow {
		evicted = s.finished[0]
		// slices.Delete zeroes the vacated slot, so neither array pins the
		// evicted line.
		s.finished = slices.Delete(s.finished, 0, 1)
	}
	if evicted != nil {
		i := slices.Index(s.order, evicted)
		s.order = slices.Delete(s.order, i, i+1)
		delete(s.table, evicted.row.ID)
	}
	s.mu.Unlock()
	switch {
	case q.reader:
		// Its line is gone from the table, so its id may go back too: reading
		// numbers no query, as through Exec.
		en.cq.RetireRead()
	case evicted != nil:
		evicted.cq.Retire()
	}
	// Waiters wake last: whoever Wait releases sees the session already
	// counted out of Active and the table already trimmed.
	q.endResults()
	close(q.done)
}

// run drains q's stream to completion and finalizes the session, then
// re-enters the admission loop: the leases this query released may satisfy
// the head of the queue.
func (s *Scheduler) run(q *Query) {
	q.mu.Lock()
	if q.reader { // never admitted: it runs from here
		q.state, q.enterV = Running, s.now()
	}
	stream := q.stream
	q.mu.Unlock()

	_, err := stream.Drain()

	q.mu.Lock()
	q.makespan = stream.Makespan()
	cancelled := q.cancelReq
	q.mu.Unlock()
	st := Done
	switch {
	case cancelled && err != nil:
		st = Cancelled
	case err != nil:
		st = Failed
	}
	if q.reader { // never admitted: its gauge appears as it ends
		q.gNodes = q.cq.Metrics().Block(nodesFamily, q.id).Gauge(0)
	}
	q.gNodes.Set(0)
	// Count before finalize wakes the waiters: whoever Wait releases reads
	// the outcome counters with this session in them.
	switch st {
	case Done:
		s.mCompleted.Inc()
	case Failed:
		s.mFailed.Inc()
	case Cancelled:
		s.mCancelled.Inc()
	}
	s.finalize(q, st, err)
	if q.reader {
		return // never counted as running, released nothing
	}
	s.mu.Lock()
	s.running--
	s.gRunning.Set(int64(s.running))
	s.mu.Unlock()
	s.admit()
}

// Cancel cancels the identified session. Queued sessions leave the queue
// immediately; admitted/running ones have their stream processes failed with
// ErrCancelled, which unwinds their Drain and releases their node leases.
// Cancelling a finished session returns ErrQueryFinished.
func (s *Scheduler) Cancel(id string) error {
	// Lock order: s.mu then q.mu. Holding both makes the state check, the
	// cancelReq flag, and the unqueue one atomic step against the admission
	// loop's claim-and-build (which re-checks cancelReq under the same pair
	// before re-inserting a blocked head).
	s.mu.Lock()
	en := s.table[id]
	if en == nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownQuery, id)
	}
	q := en.q
	if q == nil {
		st := en.row.State
		s.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrQueryFinished, id, st)
	}
	q.mu.Lock()
	st := q.state
	switch st {
	case Queued:
		q.cancelReq = true
		removed := s.unqueueLocked(q)
		q.mu.Unlock()
		s.mu.Unlock()
		if removed {
			s.finishQueued(q, Cancelled, ErrCancelled, s.mCancelled)
			s.admit()
		}
		// Not in the queue: the admission loop has claimed it (mid-build)
		// and will observe cancelReq and finalize it.
		return nil
	case Admitted, Running:
		q.cancelReq = true
		q.mu.Unlock()
		s.mu.Unlock()
		q.cq.Cancel(nil)
		return nil
	default:
		q.mu.Unlock()
		s.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrQueryFinished, id, st)
	}
}

// Info is one row of the session table.
type Info struct {
	ID            string
	State         State
	Priority      int
	Statement     string
	Nodes         int // node reservations currently held
	AdmissionWait time.Duration
	// Age is the virtual time spent in the current state so far (zero for
	// final states, and until the scheduler's clock first advances).
	Age vtime.Duration
}

// rowLocked is q's row of the session table at virtual instant vnow, Nodes
// left to the reader. q.mu held.
func (q *Query) rowLocked(vnow vtime.Time) Info {
	in := Info{
		ID:            q.id,
		State:         q.state,
		Priority:      q.sub.Priority,
		Statement:     q.src,
		AdmissionWait: q.admitWait,
	}
	if !q.state.Final() && vnow > q.enterV {
		in.Age = vnow.Sub(q.enterV)
	}
	return in
}

// List returns the live sessions and the finished window, in submission
// order.
func (s *Scheduler) List() []Info {
	vnow := s.now()
	s.mu.Lock()
	out := make([]Info, 0, len(s.order))
	for _, en := range s.order {
		if q := en.q; q != nil {
			q.mu.Lock()
			out = append(out, q.rowLocked(vnow))
			q.mu.Unlock()
		} else {
			out = append(out, en.row)
		}
	}
	s.mu.Unlock()
	for i := range out {
		out[i].Nodes = s.eng.LeaseCount(out[i].ID)
	}
	return out
}

// Active reports how many sessions are not in a final state. It reads a
// count kept at submission and finalization, so a Reset guard costs the
// same whatever the engine has served.
func (s *Scheduler) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Close cancels every live session, waits for them to unwind, and refuses
// further submissions. The engine itself is left open.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	qs := make([]*Query, 0, s.live)
	for _, en := range s.order {
		if en.q != nil {
			qs = append(qs, en.q)
		}
	}
	s.mu.Unlock()
	for _, q := range qs {
		if !q.State().Final() {
			_ = s.Cancel(q.ID())
		}
	}
	for _, q := range qs {
		<-q.done
	}
	s.closeSubscribers()
	return nil
}
