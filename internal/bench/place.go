package bench

import (
	"fmt"
	"strconv"

	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/place"
	"scsq/internal/sched"
	"scsq/internal/scsql"
)

// runPlace is the placement-planner experiment: k concurrent Query-1
// instances (2 back-end streams each) on a LOFAR-scale torus, placed once by
// the historic greedy sequence walk and once by the cost-model planner
// (internal/place, aggregate-throughput objective). The full sizing is the
// paper's 16x16x24 = 6144 compute nodes at k = 2, 8, 16; Tiny is a 256-node
// torus and one concurrency point, exercising the same code path in
// seconds. Each batch is read once: its virtual readings are exact.
func runPlace(s Sizing) ([]Point, error) {
	if s.Tiny {
		return placeSweep([3]int{8, 8, 4}, []int{2}, workload{60_000, 5})
	}
	return placeSweep([3]int{16, 16, 24}, []int{2, 8, 16}, workload{300_000, 20})
}

// placeSweep measures aggregate ("greedy", "planned", "gain") and mean
// per-tenant ("greedy/query", "planned/query") bandwidth for each k in
// tenants, plus the planner's placement decisions and how many of them fell
// back to the raw sequence order. Both batches run on the same engine
// (Engine.Reset between batches), so the only varied input is the placement
// discipline.
func placeSweep(torus [3]int, tenants []int, w workload) ([]Point, error) {
	const streams = 2
	src, err := scsql.InboundQuery(1, streams, w.ArrayBytes, w.ArrayCount)
	if err != nil {
		return nil, err
	}
	env, err := hw.NewLOFAR(hw.Config{Torus: torus})
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(core.Config{Env: env})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	planned := sched.Config{Placement: &place.Config{}}

	var pts []Point
	for _, k := range tenants {
		g, _, err := runTenants(eng, src, k, sched.Config{})
		if err != nil {
			return nil, fmt.Errorf("greedy k=%d: %w", k, err)
		}
		p, ds, err := runTenants(eng, src, k, planned)
		if err != nil {
			return nil, fmt.Errorf("planned k=%d: %w", k, err)
		}
		fallbacks := 0
		for _, d := range ds {
			if d.Fallback {
				fallbacks++
			}
		}
		ga, gp := g.rates(w.payload(streams))
		pa, pp := p.rates(w.payload(streams))
		x := strconv.Itoa(k)
		greedy, plan := reading(x, "greedy", "Mbps", ga), reading(x, "planned", "Mbps", pa)
		pts = append(pts, greedy, plan, gainPct(x, greedy, plan),
			reading(x, "greedy/query", "Mbps", gp),
			reading(x, "planned/query", "Mbps", pp),
			reading(x, "decisions", "count", float64(len(ds))),
			reading(x, "fallbacks", "count", float64(fallbacks)))
	}
	return pts, nil
}
