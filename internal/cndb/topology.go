package cndb

import (
	"fmt"
	"sort"

	"scsq/internal/hw"
)

// TopologySelector builds allocation sequences informed by the
// communication measurements of the paper — the refinement of the node
// selection algorithm that §5 leaves as future work. It encodes one of the
// measured rules: producers streaming to a common consumer inside the
// BlueGene should be placed so their torus routes are disjoint and avoid
// each other's (busy) communication co-processors — the balanced selection
// of Figure 7B, measured up to 60% faster than the sequential one.
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
