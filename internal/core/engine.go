// Package core implements the SCSQ engine: the client manager, the
// stream-process (SP) abstraction that makes processes first-class query
// objects, and the wiring of running processes across the simulated LOFAR
// clusters.
//
// The paper's sp(s, c) assigns subquery s to a new stream process in
// cluster c; spv(s, c) assigns each subquery of a set to a new stream
// process; extract(p) requests the elements of p's subquery; merge(p)
// combines the streams of a set of processes. Query.SP, Query.SPV,
// PlanBuilder.Extract/Merge and Query.Extract/MergeExtract are these
// functions' programmatic form; the SCSQL front end (internal/scsql) lowers
// parsed queries onto them.
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
// placed through that Query (SP/SPV, ClientPlan/Extract/MergeExtract) inside
// BuildAs — a synchronous SCSQL statement (scsql.Evaluator.Exec) and a
// scheduled session (internal/sched) differ only in who holds the handle.
type Engine struct {
	env    *hw.Env
	mpi    *mpicar.Fabric
	tcp    *tcpcar.Fabric
	netTCP *tcpcar.NetFabric // non-nil in real-socket mode
	udp    *tcpcar.UDPFabric // non-nil when inbound streams use UDP
	coords map[hw.ClusterName]*coord.Coordinator
	poller *coord.BGPoller

	cfg        Config // as NewEngine filled it in: every default explicit
	clientNode int    // front-end node hosting the client manager

	// cacheFactor is env.Cost.CacheFactor, bound once: a method value copies
	// the whole cost model, which every MPI sender and receiver would pay.
	cacheFactor func(bufBytes int) float64

	inj *chaos.Injector // nil without Config.Chaos
	sup *Supervisor     // nil without Config.Supervision

	// reg is the engine's telemetry registry — always present. A finished
	// query's keys remain queryable (e.g. by a follow-up monitor() statement)
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

	// plannerMu guards the optional placement planner hook. A separate
	// (read-mostly) lock: planning happens on the placement path, which
	// must not contend with e.mu's bookkeeping.
	plannerMu sync.RWMutex
	planner   PlacementPlanner

	mu      sync.Mutex
	queries map[string]*queryCtx // every query scope not yet retired, by id
	qSeq    int                  // query id allocator; Reset never rewinds it (only an unused id returns, see Drain)
	sched   QueryScheduler       // attached multi-tenant scheduler, or nil
	closed  bool
	// clock is the attached scheduler's policy clock, or nil. Every element
	// of every query reads it (observe), so it is an atomic rather than a
	// field behind e.mu.
	clock atomic.Pointer[VTimeObserver]
	// advance is observe, bound once: the emit func of every RP's agent.
	advance func(vtime.Time)
	// stop closes on Engine.Close: the reap signal for failure-path helper
	// goroutines (early-close inbox drains) whose inboxes are never closed.
	stop chan struct{}
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
	// RealTCP carries cross-cluster streams over real loopback TCP sockets
	// (length-prefixed frames, one connection per stream) instead of
	// in-process channels. Virtual-time results are identical; the mode
	// exercises the actual network stack.
	RealTCP bool
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
	// killed). Over RealTCP the socket carrier wraps the same charging link,
	// so it sees the same verdicts: a dropped frame never reaches the
	// socket, a delayed one is charged late.
	Chaos *chaos.Injector
	// Supervision, when set, enables supervised re-placement: when a source
	// RP dies of a node failure, the supervisor re-places it via its
	// original allocation sequence (excluding dead nodes), rebuilds its
	// plan, re-subscribes its consumers, and resumes — at most
	// *Supervision times per RP. Past the budget, or for unrecoverable RPs
	// (an input-bearing RP cannot replay its consumed inputs), the failure
	// propagates through the SP graph as a typed error instead of hanging
	// Wait. nil is no supervisor; a pointer to 0 supervises with no
	// restarts.
	Supervision *int
	// Tracer enables frame-level tracing (nil: off): sender drivers assign
	// each frame a deterministic trace ID, carriers stamp hop timestamps
	// into the frame header, and the tracer collects the spans for
	// Perfetto/Chrome-trace export (metrics.Tracer.WriteJSON). Tracing only
	// records virtual times the engine computed anyway, so enabling it does
	// not perturb schedules.
	Tracer *metrics.Tracer

	// window is the per-connection flow-control window: frames an inbox
	// buffers before the producer blocks (zero: 4). A test seam, like
	// kernelBatch: the window bounds wall-side buffering only.
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
	dst.RealTCP = cmp.Or(c.RealTCP, dst.RealTCP)
	dst.UDPInbound = cmp.Or(c.UDPInbound, dst.UDPInbound)
	dst.Chaos = cmp.Or(c.Chaos, dst.Chaos)
	dst.Supervision = cmp.Or(c.Supervision, dst.Supervision)
	dst.Tracer = cmp.Or(c.Tracer, dst.Tracer)
	dst.window = cmp.Or(c.window, dst.window)
	dst.kernelBatch = cmp.Or(c.kernelBatch, dst.kernelBatch)
}

// WithEnv is Config{Env: env}. Only benchmark/ calls it; ROADMAP item 8
// moves that caller to Config and deletes it.
func WithEnv(env *hw.Env) Option { return Config{Env: env} }

// WithMPIBufferBytes is Config{MPIBufferBytes: n}. Only benchmark/ calls
// it; ROADMAP item 8 moves that caller to Config and deletes it.
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
		env:         cfg.Env,
		cacheFactor: cfg.Env.Cost.CacheFactor,
		mpi:         mpicar.NewFabric(cfg.Env),
		tcp:         tcpcar.NewFabric(cfg.Env),
		coords:      make(map[hw.ClusterName]*coord.Coordinator, 3),
		cfg:         cfg,
		queries:     make(map[string]*queryCtx),
		inj:         cfg.Chaos,
		reg:         metrics.NewRegistry(),
		syscat:      catalog.NewRegistry(),
		stop:        make(chan struct{}),
	}
	e.advance = e.observe
	e.mpi.SetMetrics(e.reg)
	e.tcp.SetMetrics(e.reg)
	if cfg.Supervision != nil {
		e.sup = &Supervisor{eng: e, budget: *cfg.Supervision}
	}
	if e.inj != nil {
		e.mpi.SetInjector(e.inj)
		e.tcp.SetInjector(e.inj)
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
	// The poll interval is the poller's default: the doorbell rings on every
	// BlueGene placement, so the tick is only the fallback.
	poller, err := coord.NewBGPoller(e.coords[hw.FrontEnd], e.coords[hw.BlueGene], 0)
	if err != nil {
		return nil, err
	}
	e.poller = poller
	if cfg.RealTCP {
		nf, err := tcpcar.NewNetFabric(e.tcp)
		if err != nil {
			e.poller.Shutdown()
			return nil, err
		}
		e.netTCP = nf
	}
	if cfg.UDPInbound != nil {
		uf, err := tcpcar.NewUDPFabric(cfg.Env, *cfg.UDPInbound)
		if err != nil {
			e.poller.Shutdown()
			return nil, err
		}
		uf.SetInjector(e.inj)
		uf.SetMetrics(e.reg)
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
// JSON-serializable snapshot.
func (e *Engine) MetricsSnapshot() metrics.Snapshot { return e.reg.Snapshot() }

// Coordinator returns the cluster coordinator for c (nil for unknown
// clusters).
func (e *Engine) Coordinator(c hw.ClusterName) *coord.Coordinator { return e.coords[c] }

// FileTable returns the configured file table (possibly nil).
func (e *Engine) FileTable() sqep.FileTable { return e.cfg.Files }

// Close shuts the engine down (stopping the bgCC polling loop). Queries in
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
	if e.activeQueriesLocked() > 0 {
		return ErrQueriesActive
	}
	e.closed = true
	close(e.stop)
	e.poller.Shutdown()
	if e.netTCP != nil {
		return e.netTCP.Close()
	}
	return nil
}

// Reset retires every query scope — leftover SP allocations are released,
// edges dropped, metric keys and busy time folded — and frees every
// virtual resource, preparing the engine for an independent query run. While
// any query's streams are still draining it refuses with ErrQueriesActive —
// resetting under an active stream would leave RP goroutines blocked on
// dead inboxes. Built-but-never-started queries are torn down as before.
func (e *Engine) Reset() error {
	e.mu.Lock()
	// Checked under e.mu so no Drain can start (beginDrain) between the
	// check and the identity sweep; a stream built before this Reset that
	// drains after it fails fast with ErrStaleQuery.
	if e.activeQueriesLocked() > 0 {
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
	e.env.Reset()
	return nil
}

// handleCrash is the injector's crash listener: it relays a node death to
// the node's cluster coordinator — marking the node dead in the CNDB and
// killing its resident RPs — and poisons the inboxes feeding consumers on
// that node, so a receiver blocked on a silent inbox observes the failure.
// (A dead producer cannot send its own Down frames; the supervisor poisons
// downstream inboxes on its behalf when recovery is not possible.)
func (e *Engine) handleCrash(ref chaos.NodeRef) {
	cause := fmt.Errorf("chaos: node %s crashed: %w", ref, carrier.ErrNodeDown)
	if cc, ok := e.coords[ref.Cluster]; ok {
		cc.KillNode(ref.Node, cause)
	}
	for _, sp := range e.allSPs() {
		for _, w := range sp.wiringsTo(ref.Cluster, ref.Node) {
			poisonInbox(w.inbox, "coordinator", cause)
		}
	}
	e.notifyNodeDied(ref.Cluster, ref.Node)
}

// reapInbound drains the inboxes feeding an RP that exited with an error and
// was not replaced by the supervisor: such a consumer will never read again,
// so without the reap its producers would block forever in Send delivering
// their final frames (the classic case is a node killed in the admit→start
// window — the RP's plan never opened, so no receiver exists to drain or to
// spawn an early-close drain). Clean exits need no reap: every producer's
// stream was fully consumed. The drains discard until engine shutdown; a
// receiver's own early-close drain racing them is benign (both discard).
func (e *Engine) reapInbound(sp *SP, proc *rp.RP, cause error) {
	if cause == nil || sp.proc() != proc {
		return
	}
	seen := make(map[carrier.Inbox]bool)
	for _, p := range e.allSPs() {
		for _, w := range p.wiringsFor(sp.id) {
			if seen[w.inbox] {
				continue
			}
			seen[w.inbox] = true
			go rp.Discard(w.inbox, e.stop)
		}
	}
}

// notifyNodeDied tells an attached capacity-observing scheduler that a node
// left the pool. Called after the CNDB already reflects the death, so the
// observer's re-evaluation sees the shrunken capacity.
func (e *Engine) notifyNodeDied(c hw.ClusterName, node int) {
	if co, ok := e.Scheduler().(CapacityObserver); ok {
		co.NodeDied(string(c), node)
	}
}

// ReviveNode returns a dead node to service: the CNDB accepts placements on
// it again and, under chaos, the injector stops failing its traffic. This is
// the "node comes back" event the transient-admission retry path waits for;
// the soak harness uses it to restore capacity between rounds.
func (e *Engine) ReviveNode(c hw.ClusterName, node int) error {
	cc, ok := e.coords[c]
	if !ok {
		return fmt.Errorf("core: unknown cluster %q", c)
	}
	e.inj.Revive(c, node) // nil-safe
	cc.DB().Revive(node)
	return nil
}

// DeadNodeCount sums the failed-node counts across every cluster's CNDB —
// nonzero means capacity may return (via ReviveNode), which is what makes an
// unsatisfiable admission transient rather than permanent.
func (e *Engine) DeadNodeCount() int {
	n := 0
	for _, cc := range e.coords {
		n += cc.DB().DeadCount()
	}
	return n
}

// poisonInbox injects a failure-propagation frame without blocking the
// caller: the consumer may be gone, in which case its receiver's drain
// discards the frame. Every operation on the inbox wakes its parked agents
// (vtime.Wake): the consumer parked on it, or producers parked on its
// credit.
func poisonInbox(inbox carrier.Inbox, source string, cause error) {
	fr := carrier.Delivered{Frame: carrier.Frame{
		Source:  source,
		Last:    true,
		Down:    true,
		DownErr: cause.Error(),
	}}
	select {
	case inbox <- fr:
		vtime.Wake(inbox)
	default:
		go func() {
			for {
				select {
				case inbox <- fr:
					vtime.Wake(inbox)
					return
				case old := <-inbox:
					// The consumer is not draining (it may itself be dead);
					// discard in FIFO order to make room so the poison always
					// lands and this goroutine always terminates.
					vtime.Wake(inbox)
					carrier.Recycle(&old.Frame)
				}
			}
		}()
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
// sequence allows (nil for a naive whole-cluster placement) and the batch
// size of the request, it returns the order lease acquisition should probe
// instead. Implementations must be deterministic pure functions of the
// cluster snapshot — planning happens under the engine's build serialization
// and is part of the admission schedule. ok=false (or an empty order) keeps
// the original sequence order: the fallback semantics of DESIGN.md §15.
type PlacementPlanner interface {
	PlanPlacement(owner string, c hw.ClusterName, candidates []int, batch int) ([]int, bool)
}

// SetPlacementPlanner installs (nil: removes) the engine's placement
// planner. With no planner installed the placement path is byte-for-byte
// the historic one — schedules are bit-identical to a planner-less build.
func (e *Engine) SetPlacementPlanner(p PlacementPlanner) {
	e.plannerMu.Lock()
	e.planner = p
	e.plannerMu.Unlock()
}

// placementPlanner returns the installed planner, or nil.
func (e *Engine) placementPlanner() PlacementPlanner {
	e.plannerMu.RLock()
	defer e.plannerMu.RUnlock()
	return e.planner
}

// planned returns the allocation sequence a placement should actually walk:
// the planner's reordering when one is installed and admissible, the
// original sequence otherwise. The original sequence object is never
// mutated — an SP keeps it for supervised re-placement, which re-plans
// against the then-current cluster state.
func (e *Engine) planned(owner string, c hw.ClusterName, seq *cndb.Sequence, batch int) *cndb.Sequence {
	p := e.placementPlanner()
	if p == nil {
		return seq
	}
	var candidates []int
	if seq != nil {
		candidates = seq.IDs()
	}
	ids, ok := p.PlanPlacement(owner, c, candidates, batch)
	if !ok || len(ids) == 0 {
		return seq
	}
	planned, err := cndb.NewSequence(ids...)
	if err != nil {
		return seq
	}
	return planned
}

// place allocates a compute node in cluster c under the owning query's
// lease. BlueGene placements go through the front-end coordinator and are
// picked up by bgCC's polling loop, because CNK offers no server
// capabilities.
func (e *Engine) place(owner string, c hw.ClusterName, seq *cndb.Sequence) (int, error) {
	cc, ok := e.coords[c]
	if !ok {
		return 0, fmt.Errorf("core: unknown cluster %q", c)
	}
	seq = e.planned(owner, c, seq, 1)
	if c == hw.BlueGene {
		reply, err := e.coords[hw.FrontEnd].SubmitBGPlacementFor(owner, seq)
		if err != nil {
			return 0, err
		}
		res := <-reply
		return res.Node, res.Err
	}
	return cc.PlaceFor(owner, seq)
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
	return e.newPlacedSP(q.qc, sub, c, seq, node)
}

// newPlacedSP compiles and registers a stream process on an already
// allocated node — the shared tail of SP and the batch-placed SPV. On error
// the node allocation is released.
func (e *Engine) newPlacedSP(qc *queryCtx, sub Subquery, c hw.ClusterName, seq *cndb.Sequence, node int) (*SP, error) {
	id := qc.newRPID(string(c))
	sp := &SP{eng: e, qc: qc, cluster: c, id: id, sub: sub, seq: seq, node: node}
	proc, hasInputs, err := e.buildProc(sp, node)
	if err != nil {
		e.coords[c].ReleaseFor(qc.id, node)
		return nil, err
	}
	// Only input-free source RPs are recoverable: their streams are
	// deterministic functions of the plan, so a replacement replays them.
	sp.recoverable = !hasInputs
	sp.rp = proc
	e.coords[c].Register(proc)
	qc.addSP(sp)
	return sp, nil
}

// buildProc compiles sp's subquery for the given node and wraps it in a
// running process — the shared path of initial placement and supervised
// re-placement. It reports whether the plan wired any inputs.
func (e *Engine) buildProc(sp *SP, node int) (*rp.RP, bool, error) {
	hwNode, err := e.env.Node(sp.cluster, node)
	if err != nil {
		return nil, false, err
	}
	sp.qc.charge(hwNode.CPU)
	ctx := sqep.Ctx{
		CPU:     hwNode.CPU,
		Cost:    e.env.Cost,
		Files:   e.cfg.Files,
		Sources: e.cfg.Sources,
		Owner:   sp.qc.id,
		Cancel:  sp.qc,
	}
	ctx.Agent = e.env.Kernel().Join(sp.qc.id, e.advance)
	b := &PlanBuilder{qc: sp.qc, cluster: sp.cluster, node: node, spID: sp.id, agent: ctx.Agent}
	op, err := sp.sub(b)
	if err != nil {
		return nil, false, err
	}
	hasInputs := b.hasInputs
	proc := rp.New(sp.id, sp.cluster, node, ctx, op)
	proc.SetMetrics(sp.qc.metrics)
	proc.SetOnExit(func(err error) {
		if e.sup != nil {
			e.sup.onRPExit(sp, err)
		}
		e.reapInbound(sp, proc, err)
	})
	return proc, hasInputs, nil
}

// SPV assigns each subquery of the set to a new stream process of q in
// cluster c, sharing one allocation sequence so consecutive placements walk
// the sequence (paper: spv(s, c, alloc)). It returns the bag of handles.
func (q *Query) SPV(subs []Subquery, c hw.ClusterName, seq *cndb.Sequence) ([]*SP, error) {
	if c == hw.BlueGene && len(subs) > 1 {
		return q.qc.eng.spvBG(q.qc, subs, seq)
	}
	sps := make([]*SP, 0, len(subs))
	for i, sub := range subs {
		sp, err := q.SP(sub, c, seq)
		if err != nil {
			return nil, fmt.Errorf("core: spv[%d]: %w", i, err)
		}
		sps = append(sps, sp)
	}
	return sps, nil
}

// spvBG places a BlueGene process bag by submitting every placement request
// before building any SP: the requests queue at the front-end coordinator
// together, so one poller wake-up (or one poll tick) answers the whole bag
// instead of each instance paying its own round trip. The replies arrive in
// submission order — bgCC answers its poll queue in order, and plan builds
// do not touch the node database — so the allocations are the ones the
// serial loop would have made.
func (e *Engine) spvBG(qc *queryCtx, subs []Subquery, seq *cndb.Sequence) ([]*SP, error) {
	fe := e.coords[hw.FrontEnd]
	bg := e.coords[hw.BlueGene]
	// Plan the whole bag at once: the planner sees the batch size and
	// orders the candidates with lookahead, and every request of the bag
	// walks the one planned sequence.
	walk := e.planned(qc.id, hw.BlueGene, seq, len(subs))
	replies := make([]<-chan coord.PlaceResult, 0, len(subs))
	// drainFrom releases the nodes of requests we will not build on.
	drainFrom := func(i int) {
		for _, r := range replies[i:] {
			if res := <-r; res.Err == nil {
				bg.ReleaseFor(qc.id, res.Node)
			}
		}
	}
	for i := range subs {
		reply, err := fe.SubmitBGPlacementFor(qc.id, walk)
		if err != nil {
			drainFrom(0)
			return nil, fmt.Errorf("core: spv[%d]: core: sp(%q): %w", i, hw.BlueGene, err)
		}
		replies = append(replies, reply)
	}
	sps := make([]*SP, 0, len(subs))
	for i, reply := range replies {
		res := <-reply
		if res.Err != nil {
			drainFrom(i + 1)
			return nil, fmt.Errorf("core: spv[%d]: core: sp(%q): %w", i, hw.BlueGene, res.Err)
		}
		sp, err := e.newPlacedSP(qc, subs[i], hw.BlueGene, seq, res.Node)
		if err != nil {
			drainFrom(i + 1)
			return nil, fmt.Errorf("core: spv[%d]: %w", i, err)
		}
		sps = append(sps, sp)
	}
	return sps, nil
}

// SP is a stream process: a first-class handle to a continuous subquery
// assigned to a compute node. Under supervision the node and running process
// behind the handle may be swapped by a re-placement; the id is stable.
type SP struct {
	eng     *Engine
	qc      *queryCtx // owning query
	cluster hw.ClusterName
	id      string

	// sub, seq and recoverable record how the SP was built, so a supervisor
	// can rebuild it elsewhere: the subquery re-compiles the plan, the
	// allocation sequence yields the next allowable node (dead nodes are
	// skipped by the CNDB), and only input-free source SPs are recoverable —
	// an input-bearing SP cannot re-subscribe upstream data its failed
	// incarnation already consumed.
	sub         Subquery
	seq         *cndb.Sequence
	recoverable bool

	mu       sync.Mutex
	rp       *rp.RP
	node     int
	started  bool
	restarts int // supervised re-placements attempted
	wirings  []wiring
}

// wiring records one outgoing subscription of an SP — enough to re-dial it
// from a replacement node into the same consumer inbox.
type wiring struct {
	cc       hw.ClusterName
	cn       int
	inbox    carrier.Inbox
	consumer string
	to       *vtime.Agent // the consuming process
}

// ID returns the SP's unique identity.
func (s *SP) ID() string { return s.id }

// Node returns the compute node the SP is currently assigned to (a
// supervised re-placement moves it).
func (s *SP) Node() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node
}

func (s *SP) proc() *rp.RP {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rp
}

func (s *SP) addWiring(w wiring) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wirings = append(s.wirings, w)
}

func (s *SP) wiringsFor(consumer string) []wiring {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []wiring
	for _, w := range s.wirings {
		if w.consumer == consumer {
			out = append(out, w)
		}
	}
	return out
}

func (s *SP) wiringsTo(cc hw.ClusterName, cn int) []wiring {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []wiring
	for _, w := range s.wirings {
		if w.cc == cc && w.cn == cn {
			out = append(out, w)
		}
	}
	return out
}

// WaitResolved waits for the SP's final outcome across re-placements: if the
// process it was waiting on was replaced by the supervisor, it re-waits on
// the replacement instead of reporting the superseded failure.
func (s *SP) WaitResolved() error {
	for {
		w := s.proc()
		err := w.Wait()
		if cur := s.proc(); cur != w {
			continue // superseded: a replacement took over
		}
		return err
	}
}

// Start launches the stream process immediately instead of waiting for the
// query's Drain. It is the second half of dynamic RP creation (paper §2.2:
// "an RP can dynamically start new RPs by requesting them from the cluster
// coordinator"): a running RP builds a new SP of its own query with
// PlanBuilder.Query().SP, wires itself to it with Engine.ConnectLive, then
// starts it. Starting twice is a no-op.
func (s *SP) Start() error { return s.start() }

func (s *SP) start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return nil
	}
	s.started = true
	proc := s.rp
	s.mu.Unlock()
	err := proc.Start()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, rp.ErrAlreadyStarted):
		// A supervisor replacement swapped in between our read of the
		// process and this call; the replacement is already running.
		return nil
	case errors.Is(err, rp.ErrFailedBeforeStart):
		// The node died in the admit→start window. That is a process
		// failure, not a wiring error: Fail runs the exit protocol on the
		// never-started RP, so once it completes the supervisor has either
		// replaced the process or poisoned downstream, exactly as for a
		// crash after start, and Wait/WaitResolved carry the outcome.
		proc.Wait()
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
	qc        *queryCtx // the query of the plan being built
	cluster   hw.ClusterName
	node      int
	spID      string
	agent     *vtime.Agent // the process the plan runs in
	hasInputs bool
}

// Cluster returns the cluster of the SP being built.
func (b *PlanBuilder) Cluster() hw.ClusterName { return b.cluster }

// Node returns the node of the SP being built.
func (b *PlanBuilder) Node() int { return b.node }

// Query returns the query of the plan being built, so an operator that
// spawns stream processes while it runs (paper §2.2) grows that query.
func (b *PlanBuilder) Query() *Query { return &b.qc.handle }

// Extract returns an operator streaming producer p's output into this SP
// (the paper's extract(p)). The stream terminates when p terminates.
func (b *PlanBuilder) Extract(p *SP) (sqep.Operator, error) {
	b.hasInputs = true
	return b.qc.eng.connectAs(b.qc, []*SP{p}, b.cluster, b.node, b.spID, b.agent)
}

// Merge returns an operator combining the outputs of all processes in ps
// (the paper's merge()); it terminates when the last process terminates.
func (b *PlanBuilder) Merge(ps []*SP) (sqep.Operator, error) {
	if len(ps) == 0 {
		return nil, errors.New("core: merge of empty process bag")
	}
	b.hasInputs = true
	return b.qc.eng.connectAs(b.qc, ps, b.cluster, b.node, b.spID, b.agent)
}

// connectAs wires producers to the consumer (identified for edge recording,
// and in qc's metrics scope) at node (cc, cn) over the appropriate carriers
// (MPI inside the BlueGene, TCP across clusters) and returns the receiving
// operator. All producers share one inbox, which is how merge() interleaves
// their frames by arrival; to is the consuming process (nil: not known yet).
func (e *Engine) connectAs(qc *queryCtx, producers []*SP, cc hw.ClusterName, cn int, consumer string, to *vtime.Agent) (sqep.Operator, error) {
	inbox := make(carrier.Inbox, e.cfg.window)
	consNode, err := e.env.Node(cc, cn)
	if err != nil {
		return nil, err
	}
	for _, p := range producers {
		w := wiring{cc: cc, cn: cn, inbox: inbox, consumer: consumer, to: to}
		if err := e.wireProducer(p, p.proc(), p.Node(), w); err != nil {
			return nil, err
		}
	}
	rcfg := rp.ReceiverConfig{
		Producers:  len(producers),
		MPIPerByte: e.env.Cost.BGMarshalByte,
		CPU:        consNode.CPU,
		// Engine-wired streams always dedup by offset: in fault-free runs
		// offsets are contiguous and the tracking is inert; under
		// supervision it is what makes a replacement's replay exactly-once.
		TrackOffsets: true,
		BatchFrames:  e.cfg.kernelBatch,
		Metrics:      qc.metrics,
		Tracer:       e.cfg.Tracer,
		Consumer:     consumer,
		Stop:         e.stop,
	}
	switch cc {
	case hw.BlueGene:
		rcfg.TCPPerByte = e.env.Cost.BGCPUByte
		rcfg.CacheFactor = e.cacheFactor
		rcfg.MergeSwitchCost = e.env.Cost.BGMergeSwitchCost
	case hw.BackEnd:
		rcfg.TCPPerByte = e.env.Cost.BeCPUByte
	case hw.FrontEnd:
		rcfg.TCPPerByte = e.env.Cost.FECPUByte
	}
	return rp.NewReceiver(inbox, rcfg), nil
}

// wireProducer dials one stream from producer p (running as proc on node pn)
// into the consumer inbox of w, subscribes proc, and records the wiring on p
// so a supervisor can re-dial it from a replacement node. Dials ride the
// engine's retry policy, absorbing bounded bursts of injected dial timeouts.
func (e *Engine) wireProducer(p *SP, proc *rp.RP, pn int, w wiring) error {
	prodNode, err := e.env.Node(p.cluster, pn)
	if err != nil {
		return err
	}
	// Every carrier's connection is (or, over a real socket, wraps) a
	// carrier.Link; the link dialed last names the stream.
	var link *carrier.Link
	intraBG := p.cluster == hw.BlueGene && w.cc == hw.BlueGene
	conn, err := carrier.DialRetry(carrier.DefaultRetryPolicy, func() (carrier.Conn, error) {
		src := tcpcar.Endpoint{Cluster: p.cluster, Node: pn}
		dst := tcpcar.Endpoint{Cluster: w.cc, Node: w.cn}
		var derr error
		switch {
		case intraBG:
			link, derr = e.mpi.Dial(pn, w.cn, e.cfg.Buffering, w.inbox)
		case e.udp != nil && p.cluster == hw.BackEnd && w.cc == hw.BlueGene:
			link, derr = e.udp.Dial(src, dst, w.inbox)
		case e.netTCP != nil:
			nc, nerr := e.netTCP.Dial(src, dst, w.inbox)
			if nerr != nil {
				return nil, nerr
			}
			link = nc.Link()
			return nc, nil
		default:
			link, derr = e.tcp.Dial(src, dst, w.inbox)
		}
		if derr != nil {
			return nil, derr
		}
		return link, nil
	})
	if err != nil {
		return err
	}
	// The MPI driver buffers by the engine's discipline; across clusters the
	// TCP stack buffers and every element is flushed.
	var scfg rp.SenderConfig
	if intraBG {
		scfg = rp.SenderConfig{
			BufBytes:       e.cfg.MPIBufferBytes,
			Mode:           e.cfg.Buffering,
			MarshalPerByte: e.env.Cost.BGMarshalByte,
			CacheFactor:    e.cacheFactor,
			CPU:            prodNode.CPU,
		}
	} else {
		scfg = rp.SenderConfig{
			BufBytes:        1 << 20,
			Mode:            carrier.DoubleBuffered,
			FlushPerElement: true,
			MarshalPerByte:  e.marshalRate(p.cluster),
			CPU:             prodNode.CPU,
		}
	}
	scfg.Retry = carrier.DefaultRetryPolicy
	scfg.Metrics = e.reg
	scfg.Tracer = e.cfg.Tracer
	// Sender-side send.* metrics and carrier-side link.* metrics key
	// identically.
	scfg.Link = link.Label()
	link.Sender, link.Receiver = proc.Agent(), w.to
	if err := proc.Subscribe(conn, scfg); err != nil {
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
	p.addWiring(w)
	return nil
}

// ConnectLive wires a new input stream from producer p to a consumer at
// (cc, cn) while the query is already running — the carrier half of
// dynamic RP creation. The producer must not have started yet (wire first,
// then SP.Start); the returned operator plugs into the consumer's SQEP.
func (e *Engine) ConnectLive(p *SP, cc hw.ClusterName, cn int) (sqep.Operator, error) {
	return e.connectAs(p.qc, []*SP{p}, cc, cn, fmt.Sprintf("dynamic@%s:%d", cc, cn), nil)
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
