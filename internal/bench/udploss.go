package bench

import (
	"fmt"
	"strconv"

	"scsq"
	"scsq/internal/scsql"
	"scsq/internal/vtime"
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

// udpLossRun runs the query once, as the one session of a fresh engine,
// and returns the delivered array count and the goodput in Mbps.
func udpLossRun(src string, rate float64) (int64, float64, error) {
	eng, err := scsq.New(scsq.WithUDPInbound(rate))
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	sess, err := eng.Submit(src)
	if err != nil {
		return 0, 0, err
	}
	els, err := sess.Wait()
	if err != nil {
		return 0, 0, err
	}
	if len(els) != 1 {
		return 0, 0, fmt.Errorf("query returned %d elements, want 1", len(els))
	}
	delivered, ok := els[0].Value.(int64)
	if !ok {
		return 0, 0, fmt.Errorf("count is %T", els[0].Value)
	}
	return delivered, mbps(delivered*paperArrayBytes, vtime.Time(sess.Makespan())), nil
}
