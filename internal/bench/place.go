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
// paper's 16x16x24 = 6144 compute nodes at k = 2, 8, 16, three repeats;
// Tiny is a 256-node torus and one concurrency point, exercising the same
// code path in seconds.
func runPlace(s Sizing) ([]Point, error) {
	if s.Tiny {
		return placeSweep([3]int{8, 8, 4}, []int{2}, workload{60_000, 5, 2})
	}
	return placeSweep([3]int{16, 16, 24}, []int{2, 8, 16}, workload{300_000, 20, 3})
}

// placeSweep measures aggregate ("greedy", "planned", "gain") and mean
// per-tenant ("greedy/query", "planned/query") bandwidth for each k in
// tenants, plus the planner's placement decisions and how many of them fell
// back to the raw sequence order (last repeat). Both batches run on the same
// engine (Engine.Reset between batches), so the only varied input is the
// placement discipline.
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
		var aggG, aggP, perG, perP []float64
		var decisions, fallbacks int
		for rep := 0; rep < w.Repeats; rep++ {
			g, _, err := runTenants(eng, src, k, sched.Config{})
			if err != nil {
				return nil, fmt.Errorf("greedy k=%d: %w", k, err)
			}
			p, ds, err := runTenants(eng, src, k, planned)
			if err != nil {
				return nil, fmt.Errorf("planned k=%d: %w", k, err)
			}
			ga, gp := g.rates(w.payload(streams))
			pa, pp := p.rates(w.payload(streams))
			aggG, perG = append(aggG, ga), append(perG, gp)
			aggP, perP = append(aggP, pa), append(perP, pp)
			decisions, fallbacks = len(ds), 0
			for _, d := range ds {
				if d.Fallback {
					fallbacks++
				}
			}
		}
		x := strconv.Itoa(k)
		greedy, plan := summarize(x, "greedy", "Mbps", aggG), summarize(x, "planned", "Mbps", aggP)
		pts = append(pts, greedy, plan, gainPct(x, greedy, plan),
			summarize(x, "greedy/query", "Mbps", perG),
			summarize(x, "planned/query", "Mbps", perP),
			reading(x, "decisions", "count", float64(decisions)),
			reading(x, "fallbacks", "count", float64(fallbacks)))
	}
	return pts, nil
}
