// Package scsq is a Go reproduction of SCSQ — the Super Computer Stream
// Query processor of Zeitler & Risch (ICDCS 2007, "Using stream queries to
// measure communication performance of a parallel computing environment").
//
// SCSQ executes continuous queries written in SCSQL, a SQL-like language
// with streams and stream processes as first-class objects: sp(s, c)
// assigns a subquery to a new stream process in cluster c, spv(s, c) does
// so for a whole set of subqueries, extract(p) streams a process's output,
// and merge(p) combines the streams of a set of processes. Optional
// allocation sequences (explicit node ids, urr(), inPset(), psetrr())
// constrain the node-selection algorithm, which is how the paper sets up
// different communication topologies to measure.
//
// The engine runs over a simulated LOFAR hardware environment — an IBM
// BlueGene/L partition (3D torus, communication co-processors, psets with
// I/O nodes, CNK's one-process-per-node restriction) plus Linux front-end
// and back-end clusters — in which real goroutines stream real marshaled
// bytes while virtual-time resources account for what the modeled hardware
// would have spent. See DESIGN.md for the substitution rationale and
// EXPERIMENTS.md for the regenerated figures.
//
// Quickstart:
//
//	eng, err := scsq.New()
//	if err != nil { ... }
//	defer eng.Close()
//	stream, err := eng.Query(`
//	    select extract(b)
//	    from sp a, sp b
//	    where b=sp(streamof(count(extract(a))), 'bg', 0)
//	    and   a=sp(gen_array(3000000,100), 'bg', 1);`)
//	if err != nil { ... }
//	v, err := stream.One() // int64(100)
package scsq

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"scsq/internal/carrier"
	"scsq/internal/catalog"
	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/metrics"
	"scsq/internal/place"
	"scsq/internal/sched"
	"scsq/internal/scsql"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// Engine is a SCSQ instance: a client manager, three cluster coordinators
// and a simulated LOFAR hardware environment. Exec/Query run one statement
// synchronously on the calling goroutine; Submit hands statements to the
// engine's multi-tenant query scheduler, which runs many sessions
// concurrently under admission control. Reset prepares the engine for an
// independent run once no session is live.
type Engine struct {
	core  *core.Engine
	ev    *scsql.Evaluator
	sched *sched.Scheduler
}

// Option configures New.
type Option func(*config) error

// config is what the options fill in: the Config of each layer New builds.
type config struct {
	hw         hw.Config
	core       core.Config
	sched      sched.Config
	traceLimit *int // WithTracing's limit; nil: no tracing
}

// WithTorus sets the BlueGene partition's 3D torus dimensions (default
// 4×4×2: 32 compute nodes, four psets, four I/O nodes — the partition of
// the paper's experiments).
func WithTorus(x, y, z int) Option {
	return func(c *config) error {
		// hw.Config reads a zero torus as the default; here it is a mistake.
		if x <= 0 || y <= 0 || z <= 0 {
			return fmt.Errorf("scsq: torus dimensions must be positive, got %d×%d×%d", x, y, z)
		}
		c.hw.Torus = [3]int{x, y, z}
		return nil
	}
}

// WithBackEndNodes sets the back-end Linux cluster size (default 4).
func WithBackEndNodes(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("scsq: back-end cluster size must be positive, got %d", n)
		}
		c.hw.BackEndNodes = n
		return nil
	}
}

// WithMPIBufferBytes sets the MPI stream drivers' send-buffer size — the
// knob the paper sweeps in Figures 6 and 8 (default 64 KiB).
func WithMPIBufferBytes(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("scsq: MPI buffer size must be positive, got %d", n)
		}
		c.core.MPIBufferBytes = n
		return nil
	}
}

// WithSingleBuffering uses single-buffered MPI drivers (the default is
// double buffering, as in the paper's SCSQ).
func WithSingleBuffering() Option {
	return func(c *config) error {
		c.core.Buffering = carrier.SingleBuffered
		return nil
	}
}

// WithRealTCP carries cross-cluster streams over real loopback TCP sockets
// instead of in-process channels. Virtual-time results are identical; the
// mode exercises the actual network stack (framing, partial reads,
// connection lifecycle).
func WithRealTCP() Option {
	return func(c *config) error {
		c.core.RealTCP = true
		return nil
	}
}

// WithUDPInbound carries back-end → BlueGene streams over the I/O nodes'
// UDP service instead of TCP (the paper's hardware offers both). UDP is
// best-effort: datagrams drop at the given deterministic rate, and a
// counting query observes the loss; end-of-stream control frames are
// always delivered.
func WithUDPInbound(lossRate float64) Option {
	return func(c *config) error {
		if lossRate < 0 || lossRate >= 1 {
			return fmt.Errorf("scsq: UDP loss rate must be in [0,1), got %v", lossRate)
		}
		c.core.UDPInbound = &lossRate
		return nil
	}
}

// WithFiles provides the file table behind the filename(i) function and
// grep() of the mapreduce example: names[i-1] is returned by filename(i),
// and contents maps names to file bodies.
func WithFiles(names []string, contents map[string]string) Option {
	return func(c *config) error {
		c.core.Files = sqep.NewMapFileTable(names, contents)
		return nil
	}
}

// WithArraySource registers a named external stream source for
// receiver(name): a finite stream delivering the given arrays in order.
func WithArraySource(name string, arrays ...[]float64) Option {
	cp := make([][]float64, len(arrays))
	for i, a := range arrays {
		cp[i] = append([]float64(nil), a...)
	}
	return func(c *config) error {
		c.core.Sources[name] = func(*sqep.Ctx) sqep.Operator {
			vals := make([]any, len(cp))
			for i, a := range cp {
				vals[i] = append([]float64(nil), a...)
			}
			return sqep.NewSlice(vals...)
		}
		return nil
	}
}

// WithTracing enables frame-level tracing: every stream frame carries a
// deterministic trace id and per-hop virtual timestamps, buffered as spans
// the engine writes out as Chrome/Perfetto trace-event JSON (WriteTrace).
// limit bounds the buffered event count (<= 0 uses the default); events
// beyond the limit are counted but dropped. Tracing records virtual
// instants the simulation already computed, so enabling it does not perturb
// virtual-time schedules — measured bandwidths are bit-identical either
// way.
func WithTracing(limit int) Option {
	return func(c *config) error {
		c.traceLimit = &limit
		return nil
	}
}

// WithAdmissionQueueCap bounds how many submitted sessions may wait for
// admission; Submit fails once the queue is full (default 64; <= 0 means
// unbounded).
func WithAdmissionQueueCap(n int) Option {
	return func(c *config) error {
		if n <= 0 { // sched.Config: zero is the default cap, negative unbounded
			n = -1
		}
		c.sched.QueueCap = n
		return nil
	}
}

// WithLoadShedding makes a full admission queue shed its lowest-priority,
// youngest session (terminal state SessionShed, error ErrShed) when a
// strictly higher-priority submission arrives, instead of rejecting the
// newcomer with ErrQueueFull. Off by default: shedding changes which
// sessions survive, so it is opt-in.
func WithLoadShedding() Option {
	return func(c *config) error {
		c.sched.LoadShedding = true
		return nil
	}
}

// WithAdmissionRetry parks sessions whose placement fails only because
// nodes are currently dead (ErrUnsatisfiableNow) and retries them up to
// maxRetries times with exponential virtual-time backoff between base and
// max, instead of failing them outright. Plans that exceed the topology
// (ErrUnsatisfiablePlan) still fail immediately. maxRetries <= 0 disables
// retrying.
func WithAdmissionRetry(maxRetries int, base, max time.Duration) Option {
	return func(c *config) error {
		c.sched.AdmissionRetry = sched.AdmissionRetryPolicy{
			MaxRetries: maxRetries,
			Base:       vtime.Duration(base),
			Max:        vtime.Duration(max),
		}
		return nil
	}
}

// PlacementObjective selects what the placement planner optimizes; see
// WithPlacementPlanner.
type PlacementObjective = place.Objective

// PlaceAggregateThroughput maximizes estimated system throughput (greedy
// with batch lookahead) — the one planner objective.
const PlaceAggregateThroughput = place.AggregateThroughput

// WithPlacementPlanner attaches the cost-model placement planner to the
// engine: instead of greedily walking each query's allocation sequence,
// admission scores the sequence's candidate nodes with the torus/GbE cost
// model against the node sets already leased to live sessions and probes
// them in the chosen order (internal/place; DESIGN.md §15). Planner
// decisions are queryable via the sys_placements catalog table. Off by
// default: without the planner, placement is byte-for-byte the historic
// greedy path.
func WithPlacementPlanner(obj PlacementObjective) Option {
	return func(c *config) error {
		c.sched.Placement = &place.Config{Objective: obj}
		return nil
	}
}

// New builds an engine over a freshly simulated LOFAR environment.
func New(opts ...Option) (*Engine, error) {
	cfg := config{core: core.Config{Sources: map[string]sqep.SourceFunc{}}}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	env, err := hw.NewLOFAR(cfg.hw)
	if err != nil {
		return nil, err
	}
	cfg.core.Env = env
	if cfg.traceLimit != nil {
		cfg.core.Tracer = metrics.NewTracer(*cfg.traceLimit)
	}
	c, err := core.NewEngine(cfg.core)
	if err != nil {
		return nil, err
	}
	// The scheduler and the synchronous evaluator share one catalog: a
	// function defined interactively is visible to submitted sessions and
	// vice versa.
	sch := sched.New(c, nil, cfg.sched)
	return &Engine{core: c, ev: scsql.NewEvaluator(c, sch.Catalog()), sched: sch}, nil
}

// ErrQueriesActive is returned by Reset and Close while sessions are still
// live: cancel or wait them first.
var ErrQueriesActive = core.ErrQueriesActive

// Close shuts the engine down: live scheduler sessions are cancelled and
// waited, then the core engine closes.
func (e *Engine) Close() error {
	if err := e.sched.Close(); err != nil {
		return err
	}
	return e.core.Close()
}

// Reset prepares the engine for an independent query run: node allocations
// are released and every virtual resource is freed. Function
// definitions are kept. Reset refuses (with ErrQueriesActive) while any
// query's streams are still draining — cancel or wait the live sessions
// first.
func (e *Engine) Reset() error {
	if n := e.sched.Active(); n > 0 {
		return fmt.Errorf("%w: %d scheduler session(s) live", ErrQueriesActive, n)
	}
	return e.core.Reset()
}

// MetricsSnapshot is a point-in-time copy of the engine's telemetry: counter
// and gauge values plus virtual-time latency histograms, keyed by metric
// name. It is JSON-serializable.
type MetricsSnapshot = metrics.Snapshot

// MetricsSnapshot captures the engine's telemetry registry: per-link frame
// and byte counters, virtual-time latency histograms, retry and fault
// counts. A drained query's own keys ("rp.elements_out.q7/rp-bg-2") stay in
// the snapshot until the query is retired — by Reset, or when its session
// leaves the finished window — which folds them into the key of the same
// prefix ending in "retired": totals by prefix (SumCounters) and the keys
// that name no query ("link.*", "sched.*") survive Reset, per-RP keys do
// not. The same data is queryable in SCSQL as sys_metrics() (and monitor()).
func (e *Engine) MetricsSnapshot() MetricsSnapshot {
	return e.core.MetricsSnapshot()
}

// WriteTrace writes the buffered frame trace as Chrome/Perfetto trace-event
// JSON (load it at ui.perfetto.dev). It fails unless the engine was built
// with WithTracing.
func (e *Engine) WriteTrace(w io.Writer) error {
	t := e.core.Tracer()
	if t == nil {
		return errors.New("scsq: tracing not enabled; build the engine with WithTracing")
	}
	return t.WriteJSON(w)
}

// Scheduler returns the engine's multi-tenant query scheduler. It is the
// serving layer's attachment point (internal/server binds connections onto
// scheduler sessions and paces live catalog streams off its virtual policy
// clock); the type lives in an internal package, so the method is usable
// only inside this module.
func (e *Engine) Scheduler() *sched.Scheduler { return e.sched }

// SystemCatalog returns the engine's system catalog registry, so module
// subsystems (the network server's sys_conns table) can register virtual
// tables of their own. Everyone else reads the catalog by statement:
// `select sys_tables();` lists it, `select sys_nodes();` reads a table.
func (e *Engine) SystemCatalog() *catalog.Registry { return e.core.SystemCatalog() }

// MetricsRegistry returns the engine's live telemetry registry — the
// registration point for module subsystems that contribute counters (the
// network server's conns/frames/latency instrumentation). External callers
// read the same data via MetricsSnapshot.
func (e *Engine) MetricsRegistry() *metrics.Registry { return e.core.Metrics() }

// Result is the outcome of one SCSQL statement.
type Result struct {
	// Defined is the function name for create-function statements.
	Defined string
	// Stream is the result stream for query statements.
	Stream *Stream
}

// Exec executes one SCSQL statement: a query (returning a stream the caller
// must drain) or a create-function definition.
func (e *Engine) Exec(statement string) (*Result, error) {
	res, err := e.ev.Exec(statement)
	if err != nil {
		return nil, err
	}
	out := &Result{Defined: res.Defined}
	if res.Stream != nil {
		out.Stream = &Stream{cs: res.Stream}
	}
	return out, nil
}

// Query executes a SCSQL query statement and returns its result stream.
func (e *Engine) Query(query string) (*Stream, error) {
	res, err := e.Exec(query)
	if err != nil {
		return nil, err
	}
	if res.Stream == nil {
		return nil, errors.New("scsq: statement defined a function; use Exec for definitions")
	}
	return res.Stream, nil
}

// Element is one result-stream item.
type Element struct {
	// Value is the stream object: int64, float64, bool, string, []float64
	// or []any.
	Value any
	// At is the virtual instant the element reached the client manager.
	At time.Duration
	// Source identifies the stream process that produced the element, when
	// it crossed a merge.
	Source string
}

// Stream is a continuous query's result, consumed at the client manager on
// the front-end cluster.
type Stream struct {
	cs       *core.ClientStream
	elements []Element
}

// Drain starts the query's stream processes, consumes the result stream to
// completion, waits for every RP to terminate and releases their nodes.
// Drain is idempotent.
func (s *Stream) Drain() ([]Element, error) {
	els, err := s.cs.Drain()
	if err != nil {
		return nil, err
	}
	if s.elements == nil {
		s.elements = make([]Element, 0, len(els))
		for _, el := range els {
			s.elements = append(s.elements, publicElement(el))
		}
	}
	return s.elements, nil
}

// One drains the stream and asserts a single result element — the shape of
// the paper's measurement queries, whose output is one integer.
func (s *Stream) One() (any, error) {
	if _, err := s.Drain(); err != nil {
		return nil, err
	}
	return s.cs.One()
}

// Makespan returns the query's virtual completion time, counted from its
// start (only meaningful after Drain).
func (s *Stream) Makespan() time.Duration {
	return s.cs.Makespan().Sub(0).Std()
}

// BandwidthMbps computes the streaming bandwidth the query measured:
// payloadBytes communicated during the virtual makespan, in megabits per
// second. This is the paper's bandwidth metric.
func (s *Stream) BandwidthMbps(payloadBytes int64) float64 {
	mk := s.Makespan()
	if mk <= 0 {
		return 0
	}
	return float64(payloadBytes) * 8 / mk.Seconds() / 1e6
}

// SessionOption configures one Submit. Each sets one field of the session's
// sched.SubmitConfig; a zero argument leaves the field as it was.
type SessionOption = sched.SubmitOption

// WithPriority sets a submitted session's admission priority (higher admits
// first; default 0). Within a priority level admission is FIFO.
func WithPriority(p int) SessionOption { return sched.SubmitConfig{Priority: p} }

// WithQueueTTL bounds how long the session may wait for admission, in
// virtual time: if the scheduler's virtual clock passes the deadline while
// the session is still queued (or parked for an admission retry), it is
// finalized SessionExpired with ErrDeadlineExceeded. Zero means no queue
// deadline.
func WithQueueTTL(d time.Duration) SessionOption {
	return sched.SubmitConfig{QueueTTL: vtime.Duration(d)}
}

// WithRunTTL bounds the session's virtual running time, measured from
// admission: past the deadline its streams unwind exactly as a cancel —
// leases release once — and the session is finalized SessionExpired with
// ErrDeadlineExceeded. Zero means no run deadline.
func WithRunTTL(d time.Duration) SessionOption { return sched.SubmitConfig{RunTTL: vtime.Duration(d)} }

// SessionState is a session's lifecycle state as reported by the scheduler:
// "queued", "admitted", "running", "done", "failed", "cancelled", "expired"
// or "shed".
type SessionState = sched.State

// Session states.
const (
	SessionQueued    = sched.Queued
	SessionAdmitted  = sched.Admitted
	SessionRunning   = sched.Running
	SessionDone      = sched.Done
	SessionFailed    = sched.Failed
	SessionCancelled = sched.Cancelled
	SessionExpired   = sched.Expired // virtual-time deadline elapsed
	SessionShed      = sched.Shed    // evicted by a higher-priority submission
)

// Terminal and admission errors of the session scheduler.
var (
	// ErrCancelled is the terminal error of a cancelled session.
	ErrCancelled = sched.ErrCancelled
	// ErrDeadlineExceeded is the terminal error of sessions whose queue or
	// run TTL elapsed on the virtual clock (state SessionExpired).
	ErrDeadlineExceeded = sched.ErrDeadlineExceeded
	// ErrShed is the terminal error of queued sessions evicted by the load
	// shedder (state SessionShed; requires WithLoadShedding).
	ErrShed = sched.ErrShed
	// ErrQueueFull is returned by Submit when the admission queue is at
	// capacity and load shedding does not apply.
	ErrQueueFull = sched.ErrQueueFull
	// ErrUnsatisfiableNow reports a placement that fails only because nodes
	// are currently dead — capacity may return; WithAdmissionRetry retries
	// these.
	ErrUnsatisfiableNow = sched.ErrUnsatisfiableNow
	// ErrUnsatisfiablePlan reports a plan no node pool of this topology can
	// ever satisfy; it always fails immediately.
	ErrUnsatisfiablePlan = sched.ErrUnsatisfiablePlan
)

// Session is one scheduled SCSQL query: a handle on its lifecycle, result
// and resource footprint.
type Session struct {
	q *sched.Query
}

// ID returns the session id ("q1", "q2", ...) — the tag of its processes,
// node leases and metrics, the argument of cancel() and the id column of
// sys_sessions() rows.
func (s *Session) ID() string { return s.q.ID() }

// State returns the session's current lifecycle state.
func (s *Session) State() SessionState { return s.q.State() }

// Statement returns the submitted SCSQL source.
func (s *Session) Statement() string { return s.q.Statement() }

// Wait blocks until the session finishes and returns its result elements.
// It is a thin wrapper over Results: the same elements, read to the end of
// the stream.
func (s *Session) Wait() ([]Element, error) {
	var out []Element
	it := s.Results()
	for {
		batch, ok, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = slices.Grow(out, batch.Len())
		for i := 0; i < batch.Len(); i++ {
			out = append(out, batch.At(i))
		}
	}
}

// ResultIter iterates a session's result elements incrementally: Next
// returns each element as soon as the simulation delivers it to the client
// manager — before the session reaches a terminal state — which is what
// lets the network serving layer stream result frames while the query is
// still running. An iterator must not be shared between goroutines;
// independent iterators each start from the first element.
type ResultIter struct {
	it *sched.ResultIter
}

// Results returns a new incremental iterator over the session's result
// elements.
func (s *Session) Results() *ResultIter {
	return &ResultIter{it: s.q.Results()}
}

// Next blocks until another element is available or the session is
// terminal. ok is false at the end of the stream; err is then the
// session's terminal error (nil for a completed session).
func (r *ResultIter) Next() (Element, bool, error) {
	el, ok, err := r.it.Next()
	if !ok || err != nil {
		return Element{}, false, err
	}
	return publicElement(el), true, nil
}

// NextBatch blocks like Next and then returns the elements the session has
// already produced past the iterator's position — at least one, at most one
// segment of the result log — at the cost of one Next. When the log is
// exhausted the next call blocks: a consumer that forwards elements (the
// serving layer) flushes after every batch, so batching never delays a row.
func (r *ResultIter) NextBatch() (Batch, bool, error) {
	els, ok, err := r.it.NextBatch()
	return Batch{els}, ok, err
}

// Batch is a read-only run of consecutive result elements, a view of one
// segment of the session's result log: it costs no copy and stays valid
// indefinitely, because the log never moves or rewrites a published element.
type Batch struct {
	els []sqep.Element
}

// Len returns the number of elements in the batch.
func (b Batch) Len() int { return len(b.els) }

// At returns the i-th element of the batch.
func (b Batch) At(i int) Element { return publicElement(b.els[i]) }

func publicElement(el sqep.Element) Element {
	return Element{
		Value:  el.Value,
		At:     el.At.Sub(0).Std(),
		Source: el.Src,
	}
}

// Cancel cancels the session: queued sessions leave the admission queue;
// running ones unwind their streams and release their node reservations,
// without perturbing concurrent sessions.
func (s *Session) Cancel() error { return s.q.Cancel() }

// Makespan returns the session's virtual completion time, counted from its
// admission instant (zero until done).
func (s *Session) Makespan() time.Duration {
	return s.q.Makespan().Sub(0).Std()
}

// BandwidthMbps computes the session's measured streaming bandwidth:
// payloadBytes communicated during the virtual makespan, in Mbit/s.
func (s *Session) BandwidthMbps(payloadBytes int64) float64 {
	mk := s.Makespan()
	if mk <= 0 {
		return 0
	}
	return float64(payloadBytes) * 8 / mk.Seconds() / 1e6
}

// AdmissionWait returns how long the session waited for admission.
func (s *Session) AdmissionWait() time.Duration { return s.q.AdmissionWait() }

// Nodes returns how many node reservations the session currently holds.
func (s *Session) Nodes() int { return s.q.Nodes() }

// Submit schedules an SCSQL statement as a concurrent session. Syntax
// errors surface synchronously; placement happens under admission control —
// a session whose allocation sequences cannot currently be satisfied waits
// in the queue (FIFO within priority) until completing sessions release
// their nodes. Definitions execute immediately.
func (e *Engine) Submit(statement string, opts ...SessionOption) (*Session, error) {
	q, err := e.sched.Submit(statement, opts...)
	if err != nil {
		return nil, err
	}
	return &Session{q: q}, nil
}

// CancelSession cancels the identified session (see Session.Cancel).
func (e *Engine) CancelSession(id string) error { return e.sched.Cancel(id) }
