package bench

import (
	"fmt"
	"strconv"

	"scsq/internal/core"
	"scsq/internal/scsql"
)

// udpLoss is the UDP-inbound extension experiment: the paper's I/O nodes
// offer TCP or UDP (§2.1); this experiment streams the Query-1 workload (n
// back-end streams of the paper's arrays) over the best-effort UDP service
// at several loss rates and reports how much of the stream arrives
// ("delivered", the share of sent arrays the BlueGene counted) and at what
// bandwidth ("goodput", of the arrays that arrived).
func udpLoss(lossRates []float64, n int) ([]Point, error) {
	if n <= 0 {
		return nil, fmt.Errorf("bench: stream count must be positive, got %d", n)
	}
	src, err := scsql.InboundQuery(1, n, paperArrayBytes, paperArrayCount)
	if err != nil {
		return nil, err
	}
	sent := int64(n) * paperArrayCount

	var pts []Point
	for _, rate := range lossRates {
		delivered, goodput, err := udpLossRun(src, rate)
		if err != nil {
			return nil, fmt.Errorf("udploss rate=%v: %w", rate, err)
		}
		x := strconv.FormatFloat(rate, 'f', 2, 64)
		pts = append(pts,
			reading(x, "delivered", "%", float64(delivered)/float64(sent)*100),
			reading(x, "goodput", "Mbps", goodput))
	}
	return pts, nil
}

// udpLossRun runs the query once on a fresh engine and returns the
// delivered array count and the goodput in Mbps.
func udpLossRun(src string, rate float64) (int64, float64, error) {
	eng, err := core.NewEngine(core.Config{UDPInbound: &rate})
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
	return delivered, mbps(delivered*paperArrayBytes, res.Stream.Makespan()), nil
}
