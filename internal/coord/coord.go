// Package coord implements SCSQ's cluster coordinators (paper §2.2): feCC
// on the front-end cluster, beCC on the back-end cluster, and bgCC on the
// BlueGene. Each coordinator owns its cluster's compute node database and
// places new running processes via the node selection algorithm.
//
// Because BlueGene's compute node kernel lacks server capabilities (no
// listen(), accept() or select()), the client manager cannot contact bgCC
// directly: subqueries destined for the BlueGene are registered with feCC,
// and bgCC retrieves them by polling — reproduced here by BGPoller. A
// submission doorbell wakes the poll early so placement does not pay the
// poll interval.
package coord

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"scsq/internal/cndb"
	"scsq/internal/hw"
	"scsq/internal/metrics"
	"scsq/internal/rp"
)

// Typed submission failures, so callers can distinguish backpressure from a
// torn-down control plane.
var (
	// ErrBGQueueFull reports that the front-end coordinator's BG placement
	// queue is at capacity; the request was not registered.
	ErrBGQueueFull = errors.New("coord: front-end BG placement queue full")
	// ErrBGPollerStopped reports that the BG polling loop has shut down; a
	// registered request would never be answered.
	ErrBGPollerStopped = errors.New("coord: BG poller stopped")
)

// PlaceResult is the outcome of a placement request.
type PlaceResult struct {
	Node int
	Err  error
}

// PlaceRequest asks for a BlueGene node allocation; bgCC answers on Reply.
// Owner is the query id whose lease the allocation is recorded under ("" for
// anonymous single-query use).
type PlaceRequest struct {
	Owner string
	Seq   *cndb.Sequence
	Reply chan PlaceResult
}

// Coordinator is one cluster's coordinator.
type Coordinator struct {
	cluster hw.ClusterName
	env     *hw.Env
	db      *cndb.DB

	mu  sync.Mutex
	rps map[string]*rp.RP

	// mKills is bound by SetMetrics; a nil-safe no-op without a registry.
	// Guarded by mu alongside the state it counts.
	mKills *metrics.Counter

	// bgQueue holds BlueGene placement requests registered with this
	// (front-end) coordinator, awaiting the BlueGene coordinator's poll.
	// bgClosed marks the queue closed for submissions: the poller has shut
	// down (or is in its final drain) and a new request would never be
	// answered.
	bgMu     sync.Mutex
	bgQueue  chan *PlaceRequest
	bgClosed bool
	// bgBell is the poller's doorbell: rung (non-blocking, capacity one) on
	// every submission so the polling loop wakes immediately instead of
	// sleeping out its tick — the difference between a ~poll-interval SP
	// spawn latency and a ~free one.
	bgBell chan struct{}
}

// New builds the coordinator for cluster c.
func New(env *hw.Env, c hw.ClusterName) (*Coordinator, error) {
	db, err := cndb.New(env, c)
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		cluster: c,
		env:     env,
		db:      db,
		rps:     make(map[string]*rp.RP),
		bgQueue: make(chan *PlaceRequest, 1024),
		bgBell:  make(chan struct{}, 1),
	}, nil
}

// SetMetrics attaches a telemetry registry: the coordinator counts node
// kills per cluster. Nil disables recording.
func (c *Coordinator) SetMetrics(reg *metrics.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mKills = reg.Counter("coord.node_kills." + string(c.cluster))
}

// Cluster returns the coordinator's cluster.
func (c *Coordinator) Cluster() hw.ClusterName { return c.cluster }

// DB returns the coordinator's compute node database.
func (c *Coordinator) DB() *cndb.DB { return c.db }

// PlaceFor allocates a compute node in this cluster, honoring the allocation
// sequence if one is given, and records the allocation as a cndb lease held
// by owner (a query id), so a query's reservations can be torn down and
// audited as a unit.
func (c *Coordinator) PlaceFor(owner string, seq *cndb.Sequence) (int, error) {
	return c.db.SelectFor(owner, seq)
}

// ReleaseFor returns a node allocation held under the given owner's lease.
func (c *Coordinator) ReleaseFor(owner string, node int) { c.db.ReleaseFor(owner, node) }

// Register records a started RP with its coordinator.
func (c *Coordinator) Register(p *rp.RP) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rps[p.ID()] = p
}

// Unregister removes a terminated RP.
func (c *Coordinator) Unregister(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.rps, id)
}

// KillNode marks a compute node of this cluster failed and kills every RP
// registered on it with cause. It returns the ids of the killed RPs.
func (c *Coordinator) KillNode(node int, cause error) []string {
	c.db.MarkDead(node)
	c.mu.Lock()
	c.mKills.Inc()
	var victims []*rp.RP
	for _, p := range c.rps {
		if p.Node() == node {
			victims = append(victims, p)
		}
	}
	c.mu.Unlock()
	ids := make([]string, 0, len(victims))
	for _, p := range victims {
		// Fail outside the lock: it aborts connections and may resolve
		// waiters synchronously.
		p.Fail(fmt.Errorf("coord: node %s:%d failed: %w", c.cluster, node, cause))
		ids = append(ids, p.ID())
	}
	return ids
}

// RPCount reports how many RPs are registered.
func (c *Coordinator) RPCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.rps)
}

// RPs returns a snapshot of the currently registered RPs, captured under
// one acquisition of the coordinator lock. The slice is the caller's; the
// pointed-to RPs stay live and must only be read through their own
// accessors. It backs the sys_rps system catalog table.
func (c *Coordinator) RPs() []*rp.RP {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*rp.RP, 0, len(c.rps))
	for _, p := range c.rps {
		out = append(out, p)
	}
	return out
}

// SubmitBGPlacementFor registers a BlueGene placement request with this
// (front-end) coordinator. The request is answered asynchronously once the
// BlueGene coordinator polls it: the returned channel receives exactly one
// result, and the allocation is recorded under the given owner's lease.
func (c *Coordinator) SubmitBGPlacementFor(owner string, seq *cndb.Sequence) (<-chan PlaceResult, error) {
	if c.cluster != hw.FrontEnd {
		return nil, fmt.Errorf("coord: BG placements must be registered with the front-end coordinator, not %q", c.cluster)
	}
	c.bgMu.Lock()
	defer c.bgMu.Unlock()
	if c.bgClosed {
		return nil, ErrBGPollerStopped
	}
	req := &PlaceRequest{Owner: owner, Seq: seq, Reply: make(chan PlaceResult, 1)}
	select {
	case c.bgQueue <- req:
		select {
		case c.bgBell <- struct{}{}:
		default: // bell already rung; one wake drains the whole queue
		}
		return req.Reply, nil
	default:
		return nil, ErrBGQueueFull
	}
}

// closeBGQueue rejects future submissions; requests already queued are still
// answered by the poller's final drain.
func (c *Coordinator) closeBGQueue() {
	c.bgMu.Lock()
	defer c.bgMu.Unlock()
	c.bgClosed = true
}

// pollBG drains pending BG placement requests (called by BGPoller).
func (c *Coordinator) pollBG() []*PlaceRequest {
	var out []*PlaceRequest
	for {
		select {
		case req := <-c.bgQueue:
			out = append(out, req)
		default:
			return out
		}
	}
}

// BGPoller is the polling loop with which the BlueGene coordinator
// retrieves new subqueries from the front-end coordinator.
type BGPoller struct {
	fe, bg   *Coordinator
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewBGPoller starts the bgCC→feCC polling loop. Call Shutdown to stop it.
func NewBGPoller(fe, bg *Coordinator, interval time.Duration) (*BGPoller, error) {
	if fe.cluster != hw.FrontEnd || bg.cluster != hw.BlueGene {
		return nil, fmt.Errorf("coord: poller needs fe and bg coordinators, got %q and %q", fe.cluster, bg.cluster)
	}
	if interval <= 0 {
		interval = 200 * time.Microsecond
	}
	p := &BGPoller{
		fe:       fe,
		bg:       bg,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go p.loop()
	return p, nil
}

func (p *BGPoller) loop() {
	defer close(p.done)
	ticker := time.NewTicker(p.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			for _, req := range p.fe.pollBG() {
				node, err := p.bg.PlaceFor(req.Owner, req.Seq)
				req.Reply <- PlaceResult{Node: node, Err: err}
			}
		case <-p.fe.bgBell:
			// Doorbell: a submission just landed; answer it without waiting
			// out the tick.
			for _, req := range p.fe.pollBG() {
				node, err := p.bg.PlaceFor(req.Owner, req.Seq)
				req.Reply <- PlaceResult{Node: node, Err: err}
			}
		case <-p.stop:
			// Final drain so no submitted request is left unanswered.
			for _, req := range p.fe.pollBG() {
				node, err := p.bg.PlaceFor(req.Owner, req.Seq)
				req.Reply <- PlaceResult{Node: node, Err: err}
			}
			return
		}
	}
}

// Shutdown stops the polling loop and waits for it to exit. It is safe to
// call from several goroutines concurrently (the old check-then-close could
// double-close the stop channel when two Shutdowns raced). Submissions are
// rejected with ErrBGPollerStopped before the loop stops, so the final drain
// answers every request that ever got in.
func (p *BGPoller) Shutdown() {
	p.stopOnce.Do(func() {
		p.fe.closeBGQueue()
		close(p.stop)
	})
	<-p.done
}
