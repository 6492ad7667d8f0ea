package cndb

import (
	"fmt"
	"sort"

	"scsq/internal/hw"
)

// TopologySelector builds allocation sequences informed by the
// communication measurements of the paper — the refinement of the node
// selection algorithm that §5 leaves as future work. It encodes three of
// the measured rules:
//
//  1. Producers streaming to a common consumer inside the BlueGene should
//     be placed so their torus routes are disjoint and avoid each other's
//     (busy) communication co-processors — the balanced selection of
//     Figure 7B, measured up to 60% faster than the sequential one.
//  2. Inbound streams should spread over as many I/O nodes as possible
//     (Queries 5/6 beat Queries 1-4 by a wide margin).
//  3. Back-end producers should co-locate on one node until it saturates
//     (Query 5 beats Query 6, Query 1 beats Query 2).
type TopologySelector struct {
	env *hw.Env
}

// NewTopologySelector returns a selector over env.
func NewTopologySelector(env *hw.Env) *TopologySelector {
	return &TopologySelector{env: env}
}

// BalancedProducers returns an allocation sequence of k BlueGene compute
// nodes for producers that will all stream to the given consumer node. The
// sequence greedily prefers nodes close to the consumer whose
// dimension-ordered routes neither pass through previously chosen producers
// nor recruit them as forwarders, keeping every producer's traffic off the
// other producers' co-processors.
func (s *TopologySelector) BalancedProducers(consumer, k int) (*Sequence, error) {
	size := s.env.Torus.Size()
	if consumer < 0 || consumer >= size {
		return nil, fmt.Errorf("cndb: consumer node %d out of range [0,%d)", consumer, size)
	}
	if k <= 0 {
		return nil, fmt.Errorf("cndb: need a positive producer count, got %d", k)
	}
	if k > size-1 {
		return nil, fmt.Errorf("cndb: %d producers do not fit a %d-node partition", k, size)
	}

	type candidate struct {
		id   int
		hops int
	}
	var candidates []candidate
	for id := 0; id < size; id++ {
		if id == consumer {
			continue
		}
		hops, err := s.env.Torus.HopCount(id, consumer)
		if err != nil {
			return nil, err
		}
		candidates = append(candidates, candidate{id: id, hops: hops})
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].hops != candidates[j].hops {
			return candidates[i].hops < candidates[j].hops
		}
		return candidates[i].id < candidates[j].id
	})

	chosen := make([]int, 0, k)
	blocked := map[int]bool{consumer: true} // nodes whose coprocs are busy
	forwarders := map[int]bool{}            // nodes forwarding chosen traffic
	for _, c := range candidates {
		if len(chosen) == k {
			break
		}
		if blocked[c.id] || forwarders[c.id] {
			continue
		}
		mids, err := s.env.Torus.Intermediates(c.id, consumer)
		if err != nil {
			return nil, err
		}
		usable := true
		for _, m := range mids {
			if blocked[m] {
				usable = false
				break
			}
		}
		if !usable {
			continue
		}
		chosen = append(chosen, c.id)
		blocked[c.id] = true
		for _, m := range mids {
			forwarders[m] = true
		}
	}
	// Fall back to any remaining nodes if the disjointness constraint is
	// unsatisfiable (a better contended placement beats failing).
	if len(chosen) < k {
		for _, c := range candidates {
			if len(chosen) == k {
				break
			}
			if !blocked[c.id] {
				chosen = append(chosen, c.id)
				blocked[c.id] = true
			}
		}
	}
	return NewSequence(chosen...)
}

// InboundReceivers returns the allocation sequence for n BG compute nodes
// receiving inbound streams: spread over all I/O nodes round-robin (the
// Query 5 placement), which the measurements show dominates single-I/O-node
// placements.
func (s *TopologySelector) InboundReceivers() (*Sequence, error) {
	return PsetRR(s.env)
}

// BackEndProducers returns the allocation sequence for back-end producers:
// co-locate on one node until its NIC saturates, then spill to the next —
// the placement rule observations (3) and (4) of the paper derive. maxPer
// is how many producers share a node before spilling (the paper's data
// suggests a single GbE node feeds all four I/O nodes).
func (s *TopologySelector) BackEndProducers(n, maxPer int) (*Sequence, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cndb: need a positive producer count, got %d", n)
	}
	if maxPer <= 0 {
		maxPer = 4
	}
	beNodes := s.env.ClusterSize(hw.BackEnd)
	if beNodes == 0 {
		return nil, fmt.Errorf("cndb: environment has no back-end cluster")
	}
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, (i/maxPer)%beNodes)
	}
	return NewSequence(ids...)
}
