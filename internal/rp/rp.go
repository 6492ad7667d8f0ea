// Package rp implements SCSQ running processes (paper §2.3, Figure 3). An
// RP is responsible for (i) compiling its subquery into a local stream
// query execution plan (SQEP) and interpreting it, (ii) delivering the
// result to its subscribers through sender drivers, (iii) retrieving input
// from its producers through receiver drivers, and (iv) monitoring its
// execution. Flow between RPs is regulated by bounded inboxes: a producer
// blocks when a subscriber's window is full, which plays the role of the
// paper's control messages.
//
// Both drivers charge the node CPU through vtime.Submit, keyed by plan
// position: a sender's marshal request per element continues its process's
// CPU request stream (sqep.Ctx.ID and Seq, shared with the operators), and a
// receiver submits each drained batch of de-marshal requests as one chain,
// every frame keyed by its producer and stream offset.
package rp

import (
	"errors"
	"fmt"
	"sync"

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

	pacer    *vtime.PacerAgent
	clock    Clock
	done     chan struct{}
	killed   chan struct{}
	killOnce sync.Once

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
		killed:  make(chan struct{}),
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

// SetPacer attaches the query's conservative-pacing agent: the RP publishes
// its virtual progress per element and blocks rather than running more than
// the pacing horizon ahead of its peers. It must be called before Start.
func (r *RP) SetPacer(agent *vtime.PacerAgent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pacer = agent
}

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
// error (nil on clean completion), after the run loop has terminated and its
// pacer agent retired but before Wait unblocks — the window in which a
// supervisor can swap in a replacement so waiters observe it. It must be
// called before Start.
func (r *RP) SetOnExit(fn func(err error)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onExit = fn
}

// Clock is told the virtual time of every element an RP emits. The engine's
// per-query scope implements it: the emitted times are the progress the
// scheduler's policy clock runs on.
type Clock interface {
	Advance(at vtime.Time)
}

// SetClock attaches the clock the RP reports each element's virtual time to.
// It must be called before Start.
func (r *RP) SetClock(c Clock) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock = c
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
	select {
	case <-r.killed:
		return fmt.Errorf("rp %s: %w: %w", r.ctx.ID, ErrFailedBeforeStart, r.err)
	default:
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
	r.killOnce.Do(func() {
		r.mu.Lock()
		subs := r.subs
		started := r.started
		close(r.killed)
		r.mu.Unlock()
		for _, s := range subs {
			if a, ok := s.conn.(carrier.Aborter); ok {
				a.Abort()
			}
		}
		if !started {
			// A never-started RP has no run loop to unwind its exit
			// protocol, but its death must still look like an exit to the
			// rest of the system: retire the pacer agent (peers must not
			// wait on its progress), give the supervisor its replacement
			// window, then resolve Wait. Without this, a node killed in the
			// admit→start window leaves downstream consumers blocked forever
			// on a producer that never announces its death.
			r.pacer.Done()
			r.mu.Lock()
			fn, err := r.onExit, r.err
			r.mu.Unlock()
			if fn != nil {
				fn(err)
			}
			close(r.done)
		}
	})
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

// run interprets the SQEP and pushes results to every subscriber. On any
// failure it still terminates the outgoing streams — with Down frames, so
// downstream RPs observe the failure instead of a clean end — and the error
// is reported through Wait. The deferred order matters: the pacer agent
// retires first (a replacement must not be gated on the dead agent's stale
// progress), then the exit hook runs (the supervisor's replacement window),
// and only then does done close, unblocking Wait.
func (r *RP) run() {
	defer close(r.done)
	defer func() {
		r.mu.Lock()
		fn, err := r.onExit, r.err
		r.mu.Unlock()
		if fn != nil {
			fn(err)
		}
	}()
	defer r.pacer.Done()

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
		select {
		case <-r.killed:
			r.terminateSubs()
			return
		default:
		}
		el, ok, err := plan.Next()
		if err != nil {
			r.setErr(err)
			break
		}
		if !ok {
			break
		}
		r.pacer.Wait(el.At)
		if r.clock != nil {
			r.clock.Advance(el.At)
		}
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
