// Package rp implements SCSQ running processes (paper §2.3, Figure 3). An
// RP is responsible for (i) compiling its subquery into a local stream
// query execution plan (SQEP) and interpreting it, (ii) delivering the
// result to its subscribers through sender drivers, (iii) retrieving input
// from its producers through receiver drivers, and (iv) monitoring its
// execution. Flow between RPs is regulated by bounded inboxes: a producer
// blocks when a subscriber's window is full, which plays the role of the
// paper's control messages.
//
// An RP reports progress and waits only at its query's vtime door, as its
// agent (sqep.Ctx.Agent): Emit per element, vtime.Recv on an inbox and
// vtime.Send on a subscriber's credit (carrier.Link.Sender).
//
// Both drivers charge the node CPU through vtime.Submit, keyed by plan
// position: a sender's marshal request per element, and the key of each
// frame it flushes, continue its process's request stream (sqep.Ctx.ID and
// Seq, shared with the operators), and a receiver submits each drained batch
// of de-marshal requests as one chain, every frame keyed by its producer and
// its key (carrier.Frame.Seq).
package rp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"scsq/internal/carrier"
	"scsq/internal/hw"
	"scsq/internal/marshal"
	"scsq/internal/metrics"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// RP is a running process executing one continuous subquery on one compute
// node.
type RP struct {
	cluster hw.ClusterName
	node    int
	plan    sqep.Operator
	ctx     sqep.Ctx // ctx.ID is the RP's identity

	mu      sync.Mutex
	subs    []*senderDriver
	started bool
	err     error
	onExit  func(error)

	done   chan struct{}
	killed atomic.Bool // set once, by the first Fail

	// Monitoring counters live in the block SetMetrics took from the query's
	// scope (the registry reads them as "rp.elements_out.<id>" and friends)
	// and are accessed through cached handles: nil, recording nothing, until
	// then.
	mElems  *metrics.Counter
	mBytes  *metrics.Counter
	mFrames *metrics.Counter
	mLast   *metrics.Gauge
}

// New creates an RP with the given identity and execution context, whose CPU
// requests it keys by id, running plan: the RP's compiled subquery, whose
// receiver leaves the engine wired in beforehand. The RP does not run (nor
// open plan) until Start is called; subscribers must be attached before then.
func New(id string, cluster hw.ClusterName, node int, ctx sqep.Ctx, plan sqep.Operator) *RP {
	ctx.ID = id
	return &RP{
		cluster: cluster,
		node:    node,
		plan:    plan,
		ctx:     ctx,
		done:    make(chan struct{}),
	}
}

// rpFamily is an RP's metrics block, keyed by the RP's id in its query's
// scope.
var rpFamily = &metrics.Family{
	Counters: []string{"rp.elements_out.", "rp.bytes_out.", "rp.frames_out."},
	Gauges:   []string{"rp.last_out."},
}

// SetMetrics takes the RP's monitoring counters from its query's scope (the
// engine calls this at placement, so every RP's counters land in the query's
// telemetry). It must be called before Start.
func (r *RP) SetMetrics(scope *metrics.Scope) {
	b := scope.Block(rpFamily, r.ctx.ID)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mElems, r.mBytes, r.mFrames, r.mLast = b.Counter(0), b.Counter(1), b.Counter(2), b.Gauge(0)
}

// ID returns the RP's identity.
func (r *RP) ID() string { return r.ctx.ID }

// Cluster returns the cluster the RP runs in.
func (r *RP) Cluster() hw.ClusterName { return r.cluster }

// Node returns the compute-node id the RP was placed on.
func (r *RP) Node() int { return r.node }

// Agent returns the RP's place at its query's door (sqep.Ctx.Agent): where
// it is parked and how far it has emitted.
func (r *RP) Agent() *vtime.Agent { return r.ctx.Agent }

// Subscribe attaches a subscriber reachable over conn. It must be called
// before Start.
func (r *RP) Subscribe(conn carrier.Conn, cfg SenderConfig) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return fmt.Errorf("rp %s: subscribe after start", r.ctx.ID)
	}
	d, err := newSenderDriver(r.ctx.ID, conn, cfg)
	if err != nil {
		return err
	}
	d.seq = &r.ctx.Seq
	r.subs = append(r.subs, d)
	return nil
}

// SetOnExit registers a hook invoked exactly once, with the RP's final
// error (nil on clean completion), in its exit protocol (exit): the window in
// which a supervisor can swap in a replacement so waiters observe it. It
// must be called before Start.
func (r *RP) SetOnExit(fn func(err error)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onExit = fn
}

// ErrFailedBeforeStart reports Start on an RP that was already failed. The
// failure is not a wiring error: Fail runs the full exit protocol on a
// never-started RP, so the outcome reaches Wait and the exit hook exactly as
// for a crash after start — callers starting a query may treat this as a
// terminal process rather than a failed Start.
var ErrFailedBeforeStart = errors.New("rp: failed before start")

// ErrAlreadyStarted reports a second Start; the process is already running.
var ErrAlreadyStarted = errors.New("rp: already started")

// Start launches the RP's interpreter goroutine. It is an error to start an
// RP twice or to start an RP that has already been failed; the sentinel in
// the returned error tells the two apart.
func (r *RP) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.killed.Load() {
		return fmt.Errorf("rp %s: %w: %w", r.ctx.ID, ErrFailedBeforeStart, r.err)
	}
	if r.started {
		return fmt.Errorf("rp %s: %w", r.ctx.ID, ErrAlreadyStarted)
	}
	r.started = true
	go r.run()
	return nil
}

// Fail kills the RP from outside: the given cause becomes its error (unless
// one is already recorded), the run loop stops at its next element, and
// every outgoing connection is aborted so a send blocked on flow control
// unblocks. Failing an RP that was never started resolves Wait immediately.
func (r *RP) Fail(cause error) {
	r.setErr(cause)
	r.mu.Lock()
	first := r.killed.CompareAndSwap(false, true)
	subs, started := r.subs, r.started
	r.mu.Unlock()
	if !first {
		return
	}
	for _, s := range subs {
		if a, ok := s.conn.(carrier.Aborter); ok {
			a.Abort()
		}
	}
	if !started {
		// A never-started RP has no run loop to unwind its exit protocol,
		// but its death must still look like an exit to the rest of the
		// system. Without this, a node killed in the admit→start window
		// leaves downstream consumers blocked forever on a producer that
		// never announces its death.
		r.exit()
	}
}

// Wait blocks until the RP has terminated and returns its execution error,
// if any.
func (r *RP) Wait() error {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func (r *RP) setErr(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil && err != nil {
		r.err = fmt.Errorf("rp %s: %w", r.ctx.ID, err)
	}
}

// exit is the RP's exit protocol, in this order: the agent retires (peers
// and a replacement must not be gated on the dead agent's stale progress),
// then the exit hook runs (the supervisor's replacement window), and only
// then does done close, unblocking Wait.
func (r *RP) exit() {
	r.ctx.Agent.Done()
	r.mu.Lock()
	fn, err := r.onExit, r.err
	r.mu.Unlock()
	if fn != nil {
		fn(err)
	}
	close(r.done)
}

// run interprets the SQEP and pushes results to every subscriber. On any
// failure it still terminates the outgoing streams — with Down frames, so
// downstream RPs observe the failure instead of a clean end — and the error
// is reported through Wait.
func (r *RP) run() {
	defer r.exit()

	plan := r.plan
	// Every subscriber's push marshals — copies — the element before the
	// next one is pulled, so the plan's root may reuse value storage.
	sqep.UseValues(plan, sqep.Borrowed)
	if err := plan.Open(&r.ctx); err != nil {
		r.setErr(err)
		r.terminateSubs()
		return
	}
	defer func() {
		if cerr := plan.Close(); cerr != nil {
			r.setErr(cerr)
		}
	}()

	for {
		if r.killed.Load() {
			r.terminateSubs()
			return
		}
		el, ok, err := plan.Next()
		if err != nil {
			r.setErr(err)
			break
		}
		if !ok {
			break
		}
		r.ctx.Agent.Emit(el.At)
		r.mElems.Inc()
		if n, err := marshal.Size(el.Value); err == nil {
			r.mBytes.Add(int64(n)) // a value without a size fails the push below
		}
		r.mLast.SetMax(int64(el.At))
		r.mu.Lock()
		subs := r.subs
		r.mu.Unlock()
		pushFailed := false
		for _, s := range subs {
			if err := s.push(el); err != nil {
				r.setErr(err)
				pushFailed = true
			}
		}
		if pushFailed {
			// A subscriber stream is broken (node down, torn connection);
			// draining the rest of the plan would only spin against it.
			break
		}
	}
	r.terminateSubs()
}

// terminateSubs flushes and closes every outgoing stream. A failed RP
// terminates them with Down frames instead: a clean Last frame would make
// subscribers treat a truncated stream as complete.
func (r *RP) terminateSubs() {
	r.mu.Lock()
	subs := r.subs
	cause := r.err
	r.mu.Unlock()
	for _, s := range subs {
		if cause != nil {
			_ = s.finishDown(cause) // best effort: a dead node cannot send
		} else if err := s.finish(); err != nil {
			r.setErr(err)
			// The stream is torn mid-flight: downstream must not mistake it
			// for a clean end. The Down frame may itself fail (dead node);
			// the supervisor poisons on our behalf then.
			_ = s.finishDown(err)
		}
		if err := s.close(); err != nil {
			r.setErr(err)
		}
		r.mFrames.Add(s.framesOut)
	}
}
