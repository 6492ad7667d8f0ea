package bench

import (
	"fmt"
	"strconv"

	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/place"
	"scsq/internal/sched"
	"scsq/internal/scsql"
	"scsq/internal/vtime"
)

// runPlace is the placement-planner experiment: k concurrent Query-1
// instances (2 back-end streams of the paper's arrays each) on a LOFAR-scale
// torus, placed once by the historic greedy sequence walk and once by the
// cost-model planner (internal/place, aggregate-throughput objective), and
// the same k run back to back. The full sizing is the paper's 16x16x24 =
// 6144 compute nodes at k = 2, 8, 16; Tiny is k = 2 on a 256-node torus,
// which reads the full figure's k = 2 point on a smaller node database.
// Each batch is read once: its virtual readings are exact.
func runPlace(s Sizing) ([]Point, error) {
	if s.Tiny {
		return placeSweep([3]int{8, 8, 4}, []int{2})
	}
	return placeSweep([3]int{16, 16, 24}, []int{2, 8, 16})
}

// placeSweep measures aggregate ("greedy", "planned", "gain") and mean
// per-tenant ("greedy/query", "planned/query") bandwidth for each k in
// tenants, the serialized baseline ("serialized": k payloads over k times a
// lone tenant's makespan), plus the planner's placement decisions and how
// many of them fell back to the raw sequence order. Every batch runs on the
// same engine (Engine.Reset between batches), so the only varied input is
// the placement discipline.
func placeSweep(torus [3]int, tenants []int) ([]Point, error) {
	const streams = 2
	src, err := scsql.InboundQuery(1, streams, paperArrayBytes, paperArrayCount)
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
	payload := paperArrays.payload(streams)

	lone, _, err := runTenants(eng, src, 1, sched.Config{})
	if err != nil {
		return nil, fmt.Errorf("lone tenant: %w", err)
	}
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
		ga, gp := g.rates(payload)
		pa, pp := p.rates(payload)
		x := strconv.Itoa(k)
		greedy, plan := reading(x, "greedy", "Mbps", ga), reading(x, "planned", "Mbps", pa)
		pts = append(pts, greedy, plan, gainPct(x, greedy, plan),
			reading(x, "serialized", "Mbps", mbps(int64(k)*payload, vtime.Time(int64(k))*lone[0])),
			reading(x, "greedy/query", "Mbps", gp),
			reading(x, "planned/query", "Mbps", pp),
			reading(x, "decisions", "count", float64(len(ds))),
			reading(x, "fallbacks", "count", float64(fallbacks)))
	}
	return pts, nil
}

// tenantBatch is the makespan of each tenant of a batch.
type tenantBatch []vtime.Time

// rates reduces the batch to (aggregate, mean per-query) Mbps: all payloads
// over the latest tenant completion, and each tenant's payload over its own
// makespan.
func (b tenantBatch) rates(perQueryPayload int64) (aggregate, perQuery float64) {
	tmax := vtime.Time(0)
	var perSum float64
	for _, t := range b {
		tmax = max(tmax, t)
		perSum += mbps(perQueryPayload, t)
	}
	k := len(b)
	return mbps(int64(k)*perQueryPayload, tmax), perSum / float64(k)
}

// runTenants submits k instances of src to a fresh scheduler (with the
// given options) on the shared engine, waits for all of them, captures the
// placement planner's decisions if one is configured, and resets the engine
// for the next batch. The kernel is paused while the batch is submitted, so
// every tenant starts at one kernel instant whatever the host does between
// the submissions.
func runTenants(eng *core.Engine, src string, k int, cfg sched.Config) (tenantBatch, []place.Decision, error) {
	s := sched.New(eng, nil, cfg)
	defer s.Close()

	kernel := eng.Env().Kernel()
	kernel.Pause()
	qs := make([]*sched.Query, 0, k)
	for i := 0; i < k; i++ {
		q, err := s.Submit(src)
		if err != nil {
			kernel.Resume()
			return nil, nil, fmt.Errorf("bench: submit tenant %d: %w", i+1, err)
		}
		qs = append(qs, q)
	}
	kernel.Resume()
	batch := make(tenantBatch, 0, k)
	for i, q := range qs {
		if _, err := q.Wait(); err != nil {
			return nil, nil, fmt.Errorf("bench: tenant %d (%s): %w", i+1, q.ID(), err)
		}
		mk := q.Makespan()
		if mk <= 0 {
			return nil, nil, fmt.Errorf("bench: tenant %d finished with non-positive makespan %v", i+1, mk)
		}
		batch = append(batch, mk)
	}
	var ds []place.Decision
	if p := s.Planner(); p != nil {
		ds = p.Decisions()
	}
	s.Close()
	if err := eng.Reset(); err != nil {
		return nil, nil, fmt.Errorf("bench: reset: %w", err)
	}
	return batch, ds, nil
}
