package bench

import (
	"fmt"
	"strconv"

	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/scsql"
)

// udpLoss is the UDP-inbound extension experiment: the paper's I/O nodes
// offer TCP or UDP (§2.1); this experiment streams the Query-1 workload (n
// back-end streams) over the best-effort UDP service at several loss rates
// and reports how much of the stream arrives ("delivered", the share of sent
// arrays the BlueGene counted) and at what bandwidth ("goodput", of the
// arrays that arrived).
func udpLoss(lossRates []float64, n int, w workload) ([]Point, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("bench: stream count must be positive, got %d", n)
	}
	src, err := scsql.InboundQuery(1, n, w.ArrayBytes, w.ArrayCount)
	if err != nil {
		return nil, err
	}
	cost := inboundCost(w)
	sent := int64(n) * int64(w.ArrayCount)

	var pts []Point
	for _, rate := range lossRates {
		var (
			runs      []float64
			delivered int64 // deterministic loss: identical across repeats
		)
		for r := 0; r < w.Repeats; r++ {
			arrays, goodput, err := udpLossRun(src, cost, rate, w.ArrayBytes)
			if err != nil {
				return nil, fmt.Errorf("udploss rate=%v: %w", rate, err)
			}
			delivered, runs = arrays, append(runs, goodput)
		}
		x := strconv.FormatFloat(rate, 'f', 2, 64)
		pts = append(pts,
			reading(x, "delivered", "%", float64(delivered)/float64(sent)*100),
			summarize(x, "goodput", "Mbps", runs))
	}
	return pts, nil
}

// udpLossRun runs the query once on a fresh engine and returns the
// delivered array count and the goodput in Mbps.
func udpLossRun(src string, cost hw.CostModel, rate float64, arrayBytes int) (int64, float64, error) {
	env, err := hw.NewLOFAR(hw.Config{Cost: cost})
	if err != nil {
		return 0, 0, err
	}
	eng, err := core.NewEngine(core.Config{Env: env, UDPInbound: &rate})
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	res, err := scsql.NewEvaluator(eng, nil).Exec(src)
	if err != nil {
		return 0, 0, err
	}
	v, err := res.Stream.One()
	if err != nil {
		return 0, 0, err
	}
	delivered, ok := v.(int64)
	if !ok {
		return 0, 0, fmt.Errorf("count is %T", v)
	}
	return delivered, mbps(delivered*int64(arrayBytes), res.Stream.Makespan()), nil
}
