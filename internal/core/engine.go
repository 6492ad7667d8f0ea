// Package core implements the SCSQ engine: the client manager, the
// stream-process (SP) abstraction that makes processes first-class query
// objects, and the wiring of running processes across the simulated LOFAR
// clusters.
//
// The paper's sp(s, c) assigns subquery s to a new stream process in
// cluster c; spv(s, c) assigns each subquery of a set to a new stream
// process; extract(p) requests the elements of p's subquery; merge(p)
// combines the streams of a set of processes. Query.SP, Query.SPV,
// PlanBuilder.Extract/Merge and Query.ClientPlan are these functions'
// programmatic form; the SCSQL front end (internal/scsql) lowers parsed
// queries onto them.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"scsq/internal/carrier"
	"scsq/internal/catalog"
	"scsq/internal/chaos"
	"scsq/internal/cndb"
	"scsq/internal/coord"
	"scsq/internal/hw"
	"scsq/internal/metrics"
	"scsq/internal/mpicar"
	"scsq/internal/rp"
	"scsq/internal/sqep"
	"scsq/internal/tcpcar"
	"scsq/internal/vtime"
)

// Engine is a SCSQ instance over a (simulated) hardware environment. The
// engine is multi-tenant: each query gets its own queryCtx — owning its
// stream processes, its pacing group, its node-reservation leases, and what
// it leaves behind (edges, metric keys, busy time) — so several continuous
// queries can build, run, cancel, and be retired concurrently. There is one
// way to build: BeginQuery opens a query, and its SPs and client plan are
// placed through that Query (SP/SPV, ClientPlan) inside BuildAs — a
// synchronous SCSQL statement (scsql.Evaluator.Exec) and a scheduled session
// (internal/sched) differ only in who holds the handle.
type Engine struct {
	env    *hw.Env
	mpi    *mpicar.Fabric
	tcp    *tcpcar.Fabric
	udp    *tcpcar.UDPFabric // non-nil when inbound streams use UDP
	coords map[hw.ClusterName]*coord.Coordinator

	cfg        Config // as NewEngine filled it in: every default explicit
	clientNode int    // front-end node hosting the client manager

	inj *chaos.Injector // nil without Config.Chaos

	// reg is the engine's telemetry registry — always present. A finished
	// query's keys remain queryable (e.g. by a follow-up sys_metrics() statement)
	// until the query is retired, which folds them into per-prefix
	// "…retired" totals.
	reg *metrics.Registry

	// syscat is the queryable system catalog: sys_* virtual tables backed
	// by snapshot providers (see syscat.go). Always non-nil; the attached
	// scheduler registers sys_sessions into it.
	syscat *catalog.Registry

	// buildMu serializes SP-graph construction across queries: placement
	// must see a consistent node pool, which makes admission deterministic.
	buildMu sync.Mutex

	// planner is the optional placement planner hook, an atomic: planning
	// happens on the placement path, which must not contend with e.mu.
	planner atomic.Pointer[PlacementPlanner]
	// placing is the planner's order and the sequence a placement walks.
	placing struct {
		sync.Mutex
		order []int
		walk  cndb.Sequence
	}

	mu      sync.Mutex
	queries map[string]*queryCtx // every query scope not yet retired, by id
	qSeq    int                  // query id allocator; Reset never rewinds it (only an unused id returns, see Drain)
	closed  bool
	// sched is the attached multi-tenant scheduler, or nil. Every element of
	// every query feeds its policy clock (observe), so it is an atomic
	// rather than a field behind e.mu.
	sched atomic.Pointer[QueryScheduler]
	// advance is observe, bound once: the emit func of every RP's agent.
	advance func(vtime.Time)

	spares spares // what queries that finished clean handed back (finish)
}

// spares are processes, connection ends and edge lists for later builds to
// open in place, each list at most maxSpares long (as metrics.maxFree bounds
// a family's free blocks).
type spares struct {
	mu    sync.Mutex
	sps   []*SP
	recvs []*rp.Receiver
	sends []*rp.Sender
	links []*carrier.Link
	edges [][]Edge
}

const maxSpares = 64

// take pops a spare from list, or returns the zero T: a nil one is
// allocated afresh (carrier.Reuse).
func take[T any](s *spares, list *[]T) (x T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(*list); n > 0 {
		x, (*list)[n-1], *list = (*list)[n-1], *new(T), (*list)[:n-1]
	}
	return x
}

// keep puts x on list while it has room; s.mu must be held.
func keep[T any](list *[]T, x T) {
	if len(*list) < maxSpares {
		*list = append(*list, x)
	}
}

// Edge describes one carrier connection of the current query's process
// graph, for topology introspection (the shell's -explain flag).
type Edge struct {
	Query       string // owning query id ("q1", ...)
	Producer    string // producer SP id
	Consumer    string // consumer SP id, or "<qid>/client" for the client manager
	FromCluster hw.ClusterName
	FromNode    int
	ToCluster   hw.ClusterName
	ToNode      int
	Carrier     string // "mpi", "tcp" or "udp"
	// Label is the connection's carrier.Link label, the key of its link.*
	// metrics.
	Label string
}

// Config configures NewEngine. Its zero value is the engine of the paper's
// experiments over a default LOFAR environment; each field left zero keeps
// its default.
type Config struct {
	// Env is the hardware the engine runs over (nil: a default hw.NewLOFAR
	// environment).
	Env *hw.Env
	// Files is the table behind filename(i) and grep() (nil: none).
	Files sqep.FileTable
	// Sources are the named external stream sources of receiver(name).
	Sources map[string]sqep.SourceFunc
	// MPIBufferBytes is the MPI driver's send-buffer size, the knob Figures
	// 6 and 8 sweep (zero: 64 KiB; negative is an error).
	MPIBufferBytes int
	// Buffering selects single or double buffering for the MPI drivers
	// (zero: carrier.DoubleBuffered, as in the paper's SCSQ).
	Buffering carrier.Buffering
	// UDPInbound, when set, carries back-end → BlueGene streams over the I/O
	// nodes' UDP service instead of TCP (paper §2.1: the I/O nodes provide
	// TCP or UDP), dropping datagrams at the deterministic rate
	// *UDPInbound; end-of-stream control frames are always delivered, so
	// array counts observe the loss. nil is TCP; a pointer to 0 is UDP at
	// zero loss.
	UDPInbound *float64
	// Chaos attaches a seeded fault injector (nil: none): every carrier dial
	// and frame send consults it, and node-crash schedules propagate to the
	// coordinators (the crashed node is marked dead, its resident RPs are
	// killed, and the sessions they belong to fail).
	Chaos *chaos.Injector
	// Tracer enables frame-level tracing (nil: off): sender drivers assign
	// each frame a deterministic trace ID, carriers stamp hop timestamps
	// into the frame header, and the tracer collects the spans for
	// Perfetto/Chrome-trace export (metrics.Tracer.WriteJSON). Tracing only
	// records virtual times the engine computed anyway, so enabling it does
	// not perturb schedules.
	Tracer *metrics.Tracer

	// window is the per-connection flow-control window: frames an inbox
	// buffers before the producer blocks (zero: 4). A test seam, but an input
	// to the virtual schedule, not to wall-side buffering only (EXPERIMENTS.md).
	window int
	// kernelBatch bounds the receivers' batched reservation commits (zero:
	// DefaultKernelBatch). Values of one or less commit per frame (the serial
	// kernel). Batching changes lock traffic only, never virtual schedules —
	// which the kernel identity tests prove against the serial kernel
	// through this seam; it is not a tuning knob.
	kernelBatch int
}

// Option configures NewEngine. A Config is one: each of its non-zero fields
// overrides what the options before it set.
type Option interface{ apply(*Config) }

func (c Config) apply(dst *Config) {
	dst.Env = cmp.Or(c.Env, dst.Env)
	if c.Files != nil { // an interface: cmp.Or would compare dynamic values
		dst.Files = c.Files
	}
	if c.Sources != nil {
		dst.Sources = c.Sources
	}
	dst.MPIBufferBytes = cmp.Or(c.MPIBufferBytes, dst.MPIBufferBytes)
	dst.Buffering = cmp.Or(c.Buffering, dst.Buffering)
	dst.UDPInbound = cmp.Or(c.UDPInbound, dst.UDPInbound)
	dst.Chaos = cmp.Or(c.Chaos, dst.Chaos)
	dst.Tracer = cmp.Or(c.Tracer, dst.Tracer)
	dst.window = cmp.Or(c.window, dst.window)
	dst.kernelBatch = cmp.Or(c.kernelBatch, dst.kernelBatch)
}

// WithEnv is Config{Env: env}. Only benchmark/ calls it; ROADMAP item 10,
// step 1, moves that caller to Config and deletes it.
func WithEnv(env *hw.Env) Option { return Config{Env: env} }

// WithMPIBufferBytes is Config{MPIBufferBytes: n}. Only benchmark/ calls
// it; ROADMAP item 10, step 1, moves that caller to Config and deletes it.
func WithMPIBufferBytes(n int) Option { return Config{MPIBufferBytes: n} }

// DefaultKernelBatch is the default receiver-side kernel batch: up to this
// many frames already queued in an inbox are drained together and their
// de-marshal reservations committed on the node CPU in one critical section.
const DefaultKernelBatch = 16

// NewEngine builds an engine. With no options it simulates the default
// LOFAR environment.
func NewEngine(opts ...Option) (*Engine, error) {
	var cfg Config
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.Env == nil {
		env, err := hw.NewLOFAR()
		if err != nil {
			return nil, err
		}
		cfg.Env = env
	}
	cfg.MPIBufferBytes = cmp.Or(cfg.MPIBufferBytes, 64*1024)
	cfg.Buffering = cmp.Or(cfg.Buffering, carrier.DoubleBuffered)
	cfg.window = cmp.Or(cfg.window, 4)
	cfg.kernelBatch = cmp.Or(cfg.kernelBatch, DefaultKernelBatch)
	if cfg.MPIBufferBytes < 0 {
		return nil, fmt.Errorf("core: MPI buffer size must be positive, got %d", cfg.MPIBufferBytes)
	}
	if cfg.window < 0 {
		return nil, fmt.Errorf("core: window must be positive, got %d", cfg.window)
	}

	e := &Engine{
		env:     cfg.Env,
		mpi:     mpicar.NewFabric(cfg.Env),
		tcp:     tcpcar.NewFabric(cfg.Env),
		coords:  make(map[hw.ClusterName]*coord.Coordinator, 3),
		cfg:     cfg,
		queries: make(map[string]*queryCtx),
		inj:     cfg.Chaos,
		reg:     metrics.NewRegistry(),
		syscat:  catalog.NewRegistry(),
	}
	e.advance = e.observe
	e.mpi.Injector, e.mpi.Metrics = e.inj, e.reg
	e.tcp.Injector, e.tcp.Metrics = e.inj, e.reg
	if e.inj != nil {
		e.inj.SetMetrics(e.reg)
		e.inj.OnCrash(e.handleCrash)
	}
	for _, c := range []hw.ClusterName{hw.FrontEnd, hw.BackEnd, hw.BlueGene} {
		cc, err := coord.New(cfg.Env, c)
		if err != nil {
			return nil, err
		}
		cc.SetMetrics(e.reg)
		e.coords[c] = cc
	}
	if cfg.UDPInbound != nil {
		uf, err := tcpcar.NewUDPFabric(cfg.Env, *cfg.UDPInbound)
		if err != nil {
			return nil, err
		}
		uf.Injector, uf.Metrics = e.inj, e.reg
		e.udp = uf
	}
	e.registerCatalog()
	return e, nil
}

// Env returns the engine's hardware environment.
func (e *Engine) Env() *hw.Env { return e.env }

// Metrics returns the engine's telemetry registry. It is always non-nil and
// lives as long as the engine: a query's own keys ("rp.elements_out.q7/…")
// are queryable until the query is retired (Query.Retire, Reset), after
// which their values survive only in the totals by prefix
// ("rp.elements_out.retired").
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Tracer returns the frame-level tracer of Config.Tracer, or nil.
func (e *Engine) Tracer() *metrics.Tracer { return e.cfg.Tracer }

// MetricsSnapshot captures the current state of every engine metric as a
// JSON-serializable snapshot, in a turn of its own (vtime.Kernel.Lock).
func (e *Engine) MetricsSnapshot() metrics.Snapshot {
	k := e.env.Kernel()
	k.Lock()
	defer k.Unlock()
	return e.reg.Snapshot()
}

// Coordinator returns the cluster coordinator for c (nil for unknown
// clusters).
func (e *Engine) Coordinator(c hw.ClusterName) *coord.Coordinator { return e.coords[c] }

// FileTable returns the configured file table (possibly nil).
func (e *Engine) FileTable() sqep.FileTable { return e.cfg.Files }

// Close shuts the engine down: it stops the failure-path helpers. Queries in
// flight must be drained, cancelled, or waited first: Close returns
// ErrQueriesActive while any query's streams are still moving, instead of
// tearing the control plane out from under them.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	// Checked under e.mu so no Drain can start (beginDrain) between the
	// check and the teardown.
	if e.activeLocked() {
		return ErrQueriesActive
	}
	e.closed = true
	return nil
}

// Reset retires every query scope — leftover SP allocations are released,
// edges dropped, metric keys and busy time folded — and frees every
// virtual resource, preparing the engine for an independent query run. While
// any query's streams are still draining it refuses with ErrQueriesActive —
// resetting under an active stream would leave RP goroutines blocked on
// dead inboxes. Built-but-never-started queries are torn down as before.
// A node the chaos injector killed stays dead: the injector never revives
// one (cndb.DB.Reset).
func (e *Engine) Reset() error {
	e.mu.Lock()
	// Checked under e.mu so no Drain can start (beginDrain) between the
	// check and the identity sweep; a stream built before this Reset that
	// drains after it fails fast with ErrStaleQuery.
	if e.activeLocked() {
		e.mu.Unlock()
		return ErrQueriesActive
	}
	qcs := slices.Collect(maps.Values(e.queries))
	clear(e.queries)
	e.mu.Unlock()
	for _, qc := range qcs {
		qc.retire()
	}
	for _, cc := range e.coords {
		cc.DB().Reset()
	}
	k := e.env.Kernel()
	k.Lock()
	defer k.Unlock()
	e.env.Reset()
	return nil
}

// handleCrash is the injector's crash listener: it marks the node dead in
// its cluster's CNDB (the coordinator's KillNode), kills the RPs resident on
// it, and poisons the inboxes feeding consumers on that node, so a receiver
// blocked on a silent inbox observes the failure. A killed RP poisons the
// inboxes it feeds itself, as it exits (SP.Exited). A query whose processes
// it takes is marked crashed as it takes them: finish hands none back.
func (e *Engine) handleCrash(ref chaos.NodeRef) {
	cause := fmt.Errorf("chaos: node %s crashed: %w", ref, carrier.ErrNodeDown)
	if cc, ok := e.coords[ref.Cluster]; ok {
		cc.KillNode(ref.Node)
	}
	var sps []*SP
	e.eachSP(func(qc *queryCtx, sp *SP) {
		qc.crashed = true
		sps = append(sps, sp)
	})
	for _, sp := range sps {
		if sp.cluster == ref.Cluster && sp.node == ref.Node {
			sp.rp.Fail(fmt.Errorf("core: node %s failed: %w", ref, cause))
		}
	}
	for _, sp := range sps {
		sp.poison("coordinator", cause, ref.Cluster, ref.Node)
	}
}

// poisonInbox injects a failure-propagation frame into w's inbox without
// blocking the caller, and wakes its consumer by name (vtime.Wake). A full
// inbox takes the frame on a goroutine of its own, an outsider's vtime.Send:
// it lands when the consumer reads again, and is dropped once the consumer
// shut the inbox or is done.
func poisonInbox(w wiring, source string, cause error) {
	fr := carrier.Delivered{Frame: carrier.Frame{
		Source: source,
		Last:   true,
		Down:   true,
		Note:   &carrier.Note{DownErr: cause.Error()},
	}}
	select {
	case w.inbox <- fr:
		vtime.Wake(w.to, w.inbox)
	default:
		go vtime.Send(nil, w.to, w.inbox, &fr, 0, nil)
	}
}

// Edges returns the carrier connections of every query not yet retired —
// the physical communication topology, query by query in id order, each
// query's edges in wiring order.
func (e *Engine) Edges() []Edge {
	e.mu.Lock()
	qcs := slices.SortedFunc(maps.Values(e.queries), func(a, b *queryCtx) int { return a.seq - b.seq })
	e.mu.Unlock()
	var out []Edge
	for _, qc := range qcs {
		qc.mu.Lock()
		out = append(out, qc.edges...)
		qc.mu.Unlock()
	}
	return out
}

// PlacementPlanner is the optional admission-time placement hook (see
// internal/place): given the candidate node ids a placement's allocation
// sequence allows (nil for a naive whole-cluster placement), which it reads
// and neither keeps nor writes, and the batch size of the request, it appends
// the order lease acquisition should probe instead to order, the caller's,
// which the planned sequence walks. Implementations must be deterministic
// pure functions of the cluster snapshot — planning happens under the
// engine's build serialization and is part of the admission schedule. ok=false (or an empty order) keeps
// the original sequence order: the fallback semantics of DESIGN.md §15.
type PlacementPlanner interface {
	AppendPlacement(order []int, owner string, c hw.ClusterName, candidates []int, batch int) ([]int, bool)
}

// SetPlacementPlanner installs (nil: removes) the engine's placement
// planner. With no planner installed the placement path is byte-for-byte
// the historic one — schedules are bit-identical to a planner-less build.
func (e *Engine) SetPlacementPlanner(p PlacementPlanner) { e.planner.Store(&p) }

// planned returns the allocation sequence a placement should actually walk:
// the planner's reordering, in e.placing, which the caller holds while it
// walks it, when one is installed and admissible, the original sequence
// otherwise. The original sequence object is never mutated, nor are its ids
// copied.
func (e *Engine) planned(owner string, c hw.ClusterName, seq *cndb.Sequence, batch int) *cndb.Sequence {
	pp := e.planner.Load()
	if pp == nil || *pp == nil {
		return seq
	}
	p := *pp
	var candidates []int
	if seq != nil {
		candidates = seq.IDs()
	}
	pl := &e.placing
	ids, ok := p.AppendPlacement(pl.order[:0], owner, c, candidates, batch)
	if !ok || len(ids) == 0 {
		return seq
	}
	pl.order = ids
	pl.walk.Reset(ids)
	return &pl.walk
}

// place allocates a compute node in cluster c under the owning query's
// lease. A BlueGene placement is bgCC's PlaceFor like any other: the paper's
// poll of feCC is unmodelled (package coord).
func (e *Engine) place(owner string, c hw.ClusterName, seq *cndb.Sequence) (int, error) {
	cc, ok := e.coords[c]
	if !ok {
		return 0, fmt.Errorf("core: unknown cluster %q", c)
	}
	e.placing.Lock()
	defer e.placing.Unlock()
	return cc.PlaceFor(owner, e.planned(owner, c, seq, 1))
}

// SP assigns a subquery to a new stream process of q in cluster c,
// optionally constrained by an allocation sequence (paper: sp(s, c) and
// sp(s, c, alloc)). The returned handle is a first-class object usable in
// further subqueries via PlanBuilder.Extract/Merge.
func (q *Query) SP(sub Subquery, c hw.ClusterName, seq *cndb.Sequence) (*SP, error) {
	e := q.qc.eng
	node, err := e.place(q.qc.id, c, seq)
	if err != nil {
		return nil, fmt.Errorf("core: sp(%q): %w", c, err)
	}
	return e.newPlacedSP(q.qc, func(_ int, b *PlanBuilder) (sqep.Operator, error) { return sub(b) }, 0, c, node, &rpIDs{})
}

// newPlacedSP compiles build's subquery i for an already allocated node,
// wraps it in a process, whose id it takes from ids, and adds it to the
// query — the shared tail of SP and the batch-placed SPV. It opens in an SP
// a clean query handed back, or a fresh one. On error the node allocation is
// released.
func (e *Engine) newPlacedSP(qc *queryCtx, build func(int, *PlanBuilder) (sqep.Operator, error), i int, c hw.ClusterName, node int, ids *rpIDs) (*SP, error) {
	id, sp := qc.newRPID(string(c), ids), take(&e.spares, &e.spares.sps)
	if sp == nil {
		sp = new(SP)
	}
	ctx, err := e.process(qc, c, node, id, e.advance, &sp.agent, &sp.b)
	var op sqep.Operator
	if err == nil {
		op, err = build(i, &sp.b)
	}
	if err != nil {
		e.coords[c].ReleaseFor(qc.id, node)
		return nil, err
	}
	sp.qc, sp.cluster, sp.id, sp.node, sp.started = qc, c, id, node, false
	sp.wiring1 = [1]wiring{}
	sp.wirings = sp.wiring1[:0]
	rp.New(id, ctx, op, sp, &sp.rp)
	sp.rp.SetMetrics(qc.metrics)
	qc.mu.Lock()
	qc.sps = append(qc.sps, sp)
	qc.mu.Unlock()
	return sp, nil
}

// process sets up a process of qc, id on node n of cluster c, in its block:
// its plan builder, its agent, which hands what it emits to emit, and the
// context it returns. The node's CPU is charged to qc.
func (e *Engine) process(qc *queryCtx, c hw.ClusterName, n int, id string, emit func(vtime.Time), agent *vtime.Agent, b *PlanBuilder) (sqep.Ctx, error) {
	node, err := e.env.Node(c, n)
	if err != nil {
		return sqep.Ctx{}, err
	}
	qc.charge(node.CPU)
	*b = PlanBuilder{qc: qc, cluster: c, node: n, spID: id, agent: e.env.Kernel().Join(qc.id, emit, agent)}
	return sqep.Ctx{CPU: node.CPU, Cost: &e.env.Cost, Files: e.cfg.Files, Sources: e.cfg.Sources,
		Owner: qc.id, ID: id, Cancel: qc, Agent: b.agent}, nil
}

// SPV assigns each of n subqueries, build's 0 to n-1, to a new stream
// process of q in cluster c, sharing one allocation sequence so consecutive
// placements walk the sequence (paper: spv(s, c, alloc)). It returns the bag
// of handles.
func (q *Query) SPV(n int, build func(i int, b *PlanBuilder) (sqep.Operator, error), c hw.ClusterName, seq *cndb.Sequence) ([]*SP, error) {
	qc, e := q.qc, q.qc.eng
	qc.mu.Lock()
	qc.sps = slices.Grow(qc.sps, n)
	qc.mu.Unlock()
	if c == hw.BlueGene && n > 1 {
		return e.spvBG(qc, n, build, seq)
	}
	ids := rpIDs{n: n}
	sps := make([]*SP, 0, n)
	for i := range n {
		node, err := e.place(qc.id, c, seq)
		if err != nil {
			return nil, fmt.Errorf("core: spv[%d]: core: sp(%q): %w", i, c, err)
		}
		sp, err := e.newPlacedSP(qc, build, i, c, node, &ids)
		if err != nil {
			return nil, fmt.Errorf("core: spv[%d]: %w", i, err)
		}
		sps = append(sps, sp)
	}
	return sps, nil
}

// spvBG places a BlueGene process bag: it plans the whole bag at once, so
// the planner sees the batch size and orders the candidates with lookahead,
// places every instance along the one planned sequence, and only then
// builds. Plan builds do not touch the node database, so the allocations are
// the ones the serial SP loop would make. Every node it does not build on is
// released once.
func (e *Engine) spvBG(qc *queryCtx, n int, build func(int, *PlanBuilder) (sqep.Operator, error), seq *cndb.Sequence) ([]*SP, error) {
	bg := e.coords[hw.BlueGene]
	nodes := make([]int, 0, n)
	release := func(nodes []int) {
		for _, n := range nodes {
			bg.ReleaseFor(qc.id, n)
		}
	}
	e.placing.Lock()
	walk := e.planned(qc.id, hw.BlueGene, seq, n)
	for i := range n {
		node, err := bg.PlaceFor(qc.id, walk)
		if err != nil {
			e.placing.Unlock()
			release(nodes)
			return nil, fmt.Errorf("core: spv[%d]: core: sp(%q): %w", i, hw.BlueGene, err)
		}
		nodes = append(nodes, node)
	}
	e.placing.Unlock()
	ids, sps := rpIDs{n: n}, make([]*SP, 0, n)
	for i, node := range nodes {
		sp, err := e.newPlacedSP(qc, build, i, hw.BlueGene, node, &ids)
		if err != nil {
			release(nodes[i+1:])
			return nil, fmt.Errorf("core: spv[%d]: %w", i, err)
		}
		sps = append(sps, sp)
	}
	return sps, nil
}

// SP is a stream process: a first-class handle to a continuous subquery
// assigned to a compute node, one allocation with its process, agent and
// plan builder, which a query that finished clean hands back (DESIGN.md §10).
type SP struct {
	qc      *queryCtx // owning query
	cluster hw.ClusterName
	id      string
	node    int

	mu      sync.Mutex
	started bool
	wirings []wiring // starts on wiring1: a first wiring allocates nothing
	wiring1 [1]wiring

	rp    rp.RP // the running process
	agent vtime.Agent
	b     PlanBuilder
}

// wiring records one outgoing subscription of an SP: where the consumer is,
// the inbox a failure is announced into, the link, and the receiver if first.
type wiring struct {
	cc       hw.ClusterName
	cn       int
	inbox    carrier.Inbox
	consumer string
	to       *vtime.Agent // the consuming process
	link     *carrier.Link
	recv     *rp.Receiver
}

// ID returns the SP's unique identity.
func (s *SP) ID() string { return s.id }

// poison injects cause, as Down frames from source, into the consumer
// inboxes s feeds: those on node (cc, cn), or every one if cc is "".
func (s *SP) poison(source string, cause error, cc hw.ClusterName, cn int) {
	s.mu.Lock()
	wirings := slices.Clone(s.wirings)
	s.mu.Unlock()
	for _, w := range wirings {
		if cc == "" || w.cc == cc && w.cn == cn {
			poisonInbox(w, source, cause)
		}
	}
}

// Exited is the exit hook of the SP's process (rp.Exiter), run in its exit
// window: after its agent retired, before its Wait resolves. A process that
// failed poisons every inbox it feeds. Its own Down frames may not have gone
// out — a dead node sends nothing — and no consumer may wait on a silent
// stream.
func (s *SP) Exited(err error) {
	if err != nil {
		s.poison(s.id, err, "", 0)
	}
}

// Start launches the stream process immediately instead of waiting for the
// query's Drain. It is the second half of dynamic RP creation (paper §2.2:
// "an RP can dynamically start new RPs by requesting them from the cluster
// coordinator"): a running RP builds a new SP of its own query with
// PlanBuilder.Query().SP, wires itself to it with its builder's Extract,
// then starts it. Starting twice is a no-op.
func (s *SP) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return nil
	}
	s.started = true
	s.mu.Unlock()
	err := s.rp.Start()
	if errors.Is(err, rp.ErrFailedBeforeStart) {
		// The node died in the admit→start window. That is a process
		// failure, not a wiring error: Fail runs the exit protocol on the
		// never-started RP, so once it completes downstream is poisoned,
		// exactly as for a crash after start, and Wait carries the outcome.
		s.rp.Wait()
		return nil
	}
	return err
}

// Subquery builds the SQEP of a stream process. It runs at SP-construction
// time on the client manager: it may wire inputs from other SPs via the
// builder, and returns the plan's root operator.
type Subquery func(b *PlanBuilder) (sqep.Operator, error)

// PlanBuilder wires a new SP's inputs to its producer SPs.
type PlanBuilder struct {
	qc      *queryCtx // the query of the plan being built
	cluster hw.ClusterName
	node    int
	spID    string
	agent   *vtime.Agent // the process the plan runs in
}

// Query returns the query of the plan being built, so an operator that
// spawns stream processes while it runs (paper §2.2) grows that query.
func (b *PlanBuilder) Query() *Query { return &b.qc.handle }

// Agent returns the process the plan runs in: whoever wakes it names it.
func (b *PlanBuilder) Agent() *vtime.Agent { return b.agent }

// Extract returns an operator streaming producer p's output into this SP
// (the paper's extract(p)). The stream terminates when p terminates.
func (b *PlanBuilder) Extract(p *SP) (sqep.Operator, error) {
	return b.qc.eng.connectAs(b.qc, []*SP{p}, b.cluster, b.node, b.spID, b.agent)
}

// Merge returns an operator combining the outputs of all processes in ps
// (the paper's merge()); it terminates when the last process terminates.
func (b *PlanBuilder) Merge(ps []*SP) (sqep.Operator, error) {
	if len(ps) == 0 {
		return nil, errors.New("core: merge of empty process bag")
	}
	return b.qc.eng.connectAs(b.qc, ps, b.cluster, b.node, b.spID, b.agent)
}

// connectAs wires producers to the consumer (identified for edge recording,
// and in qc's metrics scope) at node (cc, cn) over the appropriate carriers
// (MPI inside the BlueGene, TCP across clusters) and returns the receiving
// operator. All producers share one inbox, which is how merge() interleaves
// their frames by arrival; to is the consuming process.
func (e *Engine) connectAs(qc *queryCtx, producers []*SP, cc hw.ClusterName, cn int, consumer string, to *vtime.Agent) (sqep.Operator, error) {
	consNode, err := e.env.Node(cc, cn)
	if err != nil {
		return nil, err
	}
	// A spare receiver brings the inbox it read, empty: every inbox of the
	// engine holds window frames.
	spare := take(&e.spares, &e.spares.recvs)
	inbox := spare.Inbox()
	if inbox == nil {
		inbox = make(carrier.Inbox, e.cfg.window)
	}
	rcfg := rp.ReceiverConfig{
		Producers:   len(producers),
		MPIPerByte:  e.env.Cost.BGMarshalByte,
		CPU:         consNode.CPU,
		BatchFrames: e.cfg.kernelBatch,
		Metrics:     qc.metrics,
		Tracer:      e.cfg.Tracer,
		Consumer:    consumer,
	}
	switch cc {
	case hw.BlueGene:
		rcfg.TCPPerByte = e.env.Cost.BGCPUByte
		rcfg.Cost = &e.env.Cost
		rcfg.MergeSwitchCost = e.env.Cost.BGMergeSwitchCost
	case hw.BackEnd:
		rcfg.TCPPerByte = e.env.Cost.BeCPUByte
	case hw.FrontEnd:
		rcfg.TCPPerByte = e.env.Cost.FECPUByte
	}
	recv := rp.NewReceiver(inbox, rcfg, spare)
	for i, p := range producers {
		w := wiring{cc: cc, cn: cn, inbox: inbox, consumer: consumer, to: to}
		if i == 0 {
			w.recv = recv
		}
		if err := e.wireProducer(p, w); err != nil {
			return nil, err
		}
	}
	return recv, nil
}

// wireProducer dials one stream from producer p into the consumer inbox of
// w, subscribes p's process, and records the wiring on p, so a failure of p
// reaches the consumer.
func (e *Engine) wireProducer(p *SP, w wiring) error {
	pn := p.node
	prodNode, err := e.env.Node(p.cluster, pn)
	if err != nil {
		return err
	}
	// Every carrier's connection is a carrier.Link, whose label names the
	// stream.
	var link *carrier.Link
	intraBG := p.cluster == hw.BlueGene && w.cc == hw.BlueGene
	src := tcpcar.Endpoint{Cluster: p.cluster, Node: pn}
	dst := tcpcar.Endpoint{Cluster: w.cc, Node: w.cn}
	spare := take(&e.spares, &e.spares.links)
	switch {
	case intraBG:
		link, err = e.mpi.Dial(pn, w.cn, e.cfg.Buffering, w.inbox, spare)
	case e.udp != nil && p.cluster == hw.BackEnd && w.cc == hw.BlueGene:
		link, err = e.udp.Dial(src, dst, w.inbox, spare)
	default:
		link, err = e.tcp.Dial(src, dst, w.inbox, spare)
	}
	if err != nil {
		return err
	}
	// Across clusters the TCP stack buffers and every element is flushed; the
	// MPI driver buffers by the engine's discipline. Sender-side send.*
	// metrics and carrier-side link.* metrics key identically.
	scfg := rp.SenderConfig{
		BufBytes: 1 << 20, Mode: carrier.DoubleBuffered, FlushPerElement: true,
		MarshalPerByte: e.marshalRate(p.cluster), CPU: prodNode.CPU,
		Metrics: e.reg, Tracer: e.cfg.Tracer, Link: link.Label(),
	}
	if intraBG {
		scfg.BufBytes, scfg.Mode, scfg.FlushPerElement = e.cfg.MPIBufferBytes, e.cfg.Buffering, false
		scfg.Cost = &e.env.Cost
	}
	link.Sender, link.Receiver = p.rp.Agent(), w.to
	if err := p.rp.Subscribe(link, scfg, take(&e.spares, &e.spares.sends)); err != nil {
		return err
	}
	p.qc.wired(link, Edge{
		Query:       p.qc.id,
		Producer:    p.id,
		Consumer:    w.consumer,
		FromCluster: p.cluster,
		FromNode:    pn,
		ToCluster:   w.cc,
		ToNode:      w.cn,
		Carrier:     link.Kind(),
		Label:       link.Label(),
	})
	w.link = link
	p.mu.Lock()
	p.wirings = append(p.wirings, w)
	p.mu.Unlock()
	return nil
}

// marshalRate returns the per-byte marshal cost of a node in cluster c.
func (e *Engine) marshalRate(c hw.ClusterName) float64 {
	switch c {
	case hw.BlueGene:
		return e.env.Cost.BGMarshalByte
	case hw.BackEnd:
		return e.env.Cost.BeCPUByte
	default:
		return e.env.Cost.FECPUByte
	}
}
