package bench

import (
	"fmt"
	"strconv"

	"scsq/internal/soak"
)

// runSoak is the seeded chaos-soak figure: one full soak run per seed, every
// resilience feature armed (deadlines, shedding, retryable admission,
// crash/revive chaos, supervised replay probe). The full sizing runs the
// acceptance seed plus two independent ones; Tiny runs the acceptance seed
// alone. A run that violates a terminal invariant (leaked lease, leaked
// goroutine, accounting drift, inexact replay) is an error, not a row: the
// figure doubles as an assertion.
func runSoak(s Sizing) ([]Point, error) {
	seeds := []int64{42, 7, 11}
	if s.Tiny {
		seeds = seeds[:1]
	}
	var pts []Point
	for _, seed := range seeds {
		res, err := soak.Run(soak.DefaultConfig(seed))
		if err != nil {
			return nil, fmt.Errorf("soak seed %d: %w", seed, err)
		}
		if err := res.Check(); err != nil {
			return nil, fmt.Errorf("soak seed %d invariants: %w", seed, err)
		}
		x := strconv.FormatInt(seed, 10)
		n := func(series string, v int) Point { return reading(x, series, "count", float64(v)) }
		pts = append(pts,
			n("sessions", res.Sessions), n("done", res.Tally.Done), n("failed", res.Tally.Failed),
			n("cancelled", res.Tally.Cancelled), n("expired", res.Tally.Expired), n("shed", res.Tally.Shed),
			n("rejected", res.Tally.Rejected), n("retries", int(res.Retries)),
			reading(x, "wait-p50", "us", float64(res.QueueWaitP50.Microseconds())),
			reading(x, "wait-p99", "us", float64(res.QueueWaitP99.Microseconds())),
			reading(x, "wall", "ms", float64(res.Wall.Microseconds())/1e3))
	}
	return pts, nil
}
