package bench

import (
	"strconv"

	"scsq"
	"scsq/internal/cndb"
	"scsq/internal/hw"
	"scsq/internal/scsql"
)

// ablation is the node-selection ablation: for each k in producers, k
// producers stream the paper's arrays to one merging consumer on node 0
// inside the BlueGene at 100 kB MPI buffers, placed either by the paper's
// naive next-available algorithm (nodes 1..k, the contended
// sequential-style placement) or by the topology-aware selector
// (cndb.TopologySelector) that encodes the paper's measured placement rule
// for producers that merge. Every point is a MergeQuery statement read by
// readSweep, so at k = 2 the two series are Figure 8's 100 kB double-buffered
// seq and bal points. The "gain" series is the topology-aware selector's
// bandwidth advantage.
func ablation(producers []int) ([]Point, error) {
	env, err := hw.NewLOFAR()
	if err != nil {
		return nil, err
	}
	sel := cndb.NewTopologySelector(env)
	var sps []sweepPoint
	for _, k := range producers {
		balanced, err := sel.BalancedProducers(0, k)
		if err != nil {
			return nil, err
		}
		naive := make([]int, k)
		for i := range naive {
			naive[i] = i + 1
		}
		x := strconv.Itoa(k)
		opts := []scsq.Option{scsq.WithMPIBufferBytes(100_000)}
		sps = append(sps,
			sweepPoint{x, "naive", scsql.MergeQuery(naive, paperArrayBytes, paperArrayCount), paperArrays.payload(k), opts},
			sweepPoint{x, "topology", scsql.MergeQuery(balanced.IDs(), paperArrayBytes, paperArrayCount), paperArrays.payload(k), opts})
	}
	pts, err := readSweep(sps, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Point, 0, len(pts)/2*3)
	for i := 0; i < len(pts); i += 2 {
		out = append(out, pts[i], pts[i+1], gainPct(pts[i].X, pts[i], pts[i+1]))
	}
	return out, nil
}

// gainPct is the "gain" point: by how many percent over exceeds base.
func gainPct(x string, base, over Point) Point {
	gain := 0.0
	if base.Value > 0 {
		gain = (over.Value/base.Value - 1) * 100
	}
	return reading(x, "gain", "%", gain)
}
