package bench

import (
	"fmt"
	"strconv"

	"scsq/internal/cndb"
	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/sqep"
)

// ablation is the node-selection ablation: k producers stream large arrays
// to one merging consumer inside the BlueGene, placed either by the paper's
// naive next-available algorithm or by the topology-aware selector
// (cndb.TopologySelector) that encodes the paper's measured placement rules.
// The "gain" series is the topology-aware selector's bandwidth advantage.
func ablation(producers []int, bufBytes int, w workload) ([]Point, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	if bufBytes <= 0 {
		return nil, fmt.Errorf("bench: buffer size must be positive, got %d", bufBytes)
	}
	// One engine serves every repetition: the selector is a pure function of
	// the (reset) node database, so only the devices need freeing between
	// runs.
	eng, err := core.NewEngine(core.Config{MPIBufferBytes: bufBytes})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	var pts []Point
	for _, k := range producers {
		x := strconv.Itoa(k)
		var byTopo [2]Point
		for i, series := range []string{"naive", "topology"} {
			var runs []float64
			for r := 0; r < w.Repeats; r++ {
				mbps, err := runMergeWithSelector(eng, w, k, i == 1)
				if err != nil {
					return nil, fmt.Errorf("ablation k=%d %s: %w", k, series, err)
				}
				runs = append(runs, mbps)
			}
			byTopo[i] = summarize(x, series, "Mbps", runs)
		}
		pts = append(pts, byTopo[0], byTopo[1], gainPct(x, byTopo[0], byTopo[1]))
	}
	return pts, nil
}

// gainPct is the "gain" point: by how many percent over exceeds base.
func gainPct(x string, base, over Point) Point {
	gain := 0.0
	if base.Value > 0 {
		gain = (over.Value/base.Value - 1) * 100
	}
	return reading(x, "gain", "%", gain)
}

// runMergeWithSelector builds the k-producer merge programmatically so the
// producer placement can come from either selector, then resets the engine
// for the next run.
func runMergeWithSelector(eng *core.Engine, w workload, k int, topologyAware bool) (float64, error) {
	const consumerNode = 0
	consumerSeq, err := cndb.NewSequence(consumerNode)
	if err != nil {
		return 0, err
	}
	var producerSeq *cndb.Sequence
	if topologyAware {
		producerSeq, err = cndb.NewTopologySelector(eng.Env()).BalancedProducers(consumerNode, k)
		if err != nil {
			return 0, err
		}
	} else {
		// The naive algorithm returns the next available node: with the
		// consumer holding node 0, producers land on 1, 2, ..., k — the
		// contended sequential-style placement.
		ids := make([]int, k)
		for i := range ids {
			ids[i] = i + 1
		}
		producerSeq, err = cndb.NewSequence(ids...)
		if err != nil {
			return 0, err
		}
	}

	// Reserve the consumer's node first so neither selector can take it;
	// the RP graph still needs producers built before the consumer.
	subs := make([]core.Subquery, k)
	for i := range subs {
		subs[i] = func(*core.PlanBuilder) (sqep.Operator, error) {
			return sqep.NewGenArray(w.ArrayBytes, w.ArrayCount), nil
		}
	}
	q, err := eng.BeginQuery()
	if err != nil {
		return 0, err
	}
	producers, err := q.SPV(subs, hw.BlueGene, producerSeq)
	if err != nil {
		return 0, err
	}
	consumer, err := q.SP(func(pb *core.PlanBuilder) (sqep.Operator, error) {
		in, err := pb.Merge(producers)
		if err != nil {
			return nil, err
		}
		return sqep.NewStreamOf(sqep.NewCount(in)), nil
	}, hw.BlueGene, consumerSeq)
	if err != nil {
		return 0, err
	}
	cs, err := q.Extract(consumer)
	if err != nil {
		return 0, err
	}
	if _, err := cs.One(); err != nil {
		return 0, err
	}
	rate := mbps(w.payload(k), cs.Makespan())
	if err := eng.Reset(); err != nil {
		return 0, fmt.Errorf("bench: reset: %w", err)
	}
	return rate, nil
}
