package coord

import (
	"fmt"
	"time"

	"scsq/internal/cndb"
	"scsq/internal/hw"
)

// PlaceResult is the outcome of a placement request.
type PlaceResult struct {
	Node int
	Err  error
}

// BGPoller, NewBGPoller and SubmitBGPlacementFor are kept for benchmark/,
// which times a BlueGene placement through them; the engine calls
// Coordinator.PlaceFor on bgCC. NewBGPoller links fe to bg and starts
// nothing; the interval is ignored. ROADMAP item 10 deletes this file.
type BGPoller struct{}

// NewBGPoller checks the cluster roles and links fe to bg.
func NewBGPoller(fe, bg *Coordinator, _ time.Duration) (*BGPoller, error) {
	if fe.cluster != hw.FrontEnd || bg.cluster != hw.BlueGene {
		return nil, fmt.Errorf("coord: poller needs fe and bg coordinators, got %q and %q", fe.cluster, bg.cluster)
	}
	fe.bg = bg
	return &BGPoller{}, nil
}

// Shutdown does nothing: there is no loop to stop.
func (*BGPoller) Shutdown() {}

// SubmitBGPlacementFor places on the linked BlueGene coordinator under
// owner's lease and returns the result on a channel that already holds it.
func (c *Coordinator) SubmitBGPlacementFor(owner string, seq *cndb.Sequence) (<-chan PlaceResult, error) {
	if c.cluster != hw.FrontEnd || c.bg == nil {
		return nil, fmt.Errorf("coord: BG placements are registered with a front-end coordinator linked by NewBGPoller, not %q", c.cluster)
	}
	node, err := c.bg.PlaceFor(owner, seq)
	reply := make(chan PlaceResult, 1)
	reply <- PlaceResult{Node: node, Err: err}
	return reply, nil
}
