// Package coord implements SCSQ's cluster coordinators (paper §2.2): feCC
// on the front-end cluster, beCC on the back-end cluster, and bgCC on the
// BlueGene. Each coordinator owns its cluster's compute node database and
// places new running processes via the node selection algorithm.
//
// Because BlueGene's compute node kernel lacks server capabilities (no
// listen(), accept() or select()), the paper's client manager registers
// BlueGene subqueries with feCC and bgCC retrieves them by polling. That poll
// is unmodelled here: it charges no virtual time, so the engine places a
// BlueGene process with a direct PlaceFor on bgCC in the turn that admits
// its query, and no reading changes.
package coord

import (
	"fmt"
	"sync"

	"scsq/internal/cndb"
	"scsq/internal/hw"
	"scsq/internal/metrics"
	"scsq/internal/rp"
)

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

	// bg is the BlueGene coordinator NewBGPoller links a front-end one to
	// (probe.go); the engine never sets it.
	bg *Coordinator
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
