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
	"scsq/internal/cndb"
	"scsq/internal/hw"
	"scsq/internal/metrics"
)

// Coordinator is one cluster's coordinator. The processes it placed are the
// engine's to track: a query holds its own (core).
type Coordinator struct {
	cluster hw.ClusterName
	db      *cndb.DB

	// mKills is bound by SetMetrics; a nil-safe no-op without a registry.
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
	return &Coordinator{cluster: c, db: db}, nil
}

// SetMetrics attaches a telemetry registry: the coordinator counts node
// kills per cluster. Nil disables recording. Call it before the first kill.
func (c *Coordinator) SetMetrics(reg *metrics.Registry) {
	c.mKills = reg.Counter("coord.node_kills." + string(c.cluster))
}

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

// KillNode marks a compute node of this cluster failed: no selection takes
// it again. The engine fails the processes it hosts.
func (c *Coordinator) KillNode(node int) {
	c.db.MarkDead(node)
	c.mKills.Inc()
}
