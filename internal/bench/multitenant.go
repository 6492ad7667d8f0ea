package bench

import (
	"fmt"
	"strconv"
	"time"

	"scsq/internal/core"
	"scsq/internal/place"
	"scsq/internal/sched"
	"scsq/internal/scsql"
	"scsq/internal/vtime"
)

// multiTenant is the multi-tenant contention experiment: for each k in
// tenants, k concurrent instances of Query 1 (streams back-end streams each)
// submitted to the query scheduler on one engine, against a serialized
// baseline of the same k queries run back to back (the k=1 measurement of
// the same repeat). Series: "aggregate" is k payloads over the makespan of
// the concurrent batch, "per-query" the mean per-tenant bandwidth,
// "serialized" the baseline, "adm-wait" the mean wall-clock admission
// latency. Virtual-time determinism makes repeats agree exactly at k=1; the
// repetition mirrors the paper's five-run methodology (and exercises
// scheduling independence).
func multiTenant(tenants []int, streams int, w workload) ([]Point, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	src, err := scsql.InboundQuery(1, streams, w.ArrayBytes, w.ArrayCount)
	if err != nil {
		return nil, err
	}
	// One engine serves the whole sweep: each runTenants batch gets a fresh
	// scheduler, and Engine.Reset frees the devices between batches.
	eng, err := core.NewEngine()
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	var pts []Point
	for _, k := range tenants {
		if k <= 0 {
			return nil, fmt.Errorf("bench: tenant count must be positive, got %d", k)
		}
		var aggregate, perQuery, serialized []float64
		var wait time.Duration
		for rep := 0; rep < w.Repeats; rep++ {
			t1, _, err := runTenants(eng, src, 1, sched.Config{})
			if err != nil {
				return nil, err
			}
			batch, _, err := runTenants(eng, src, k, sched.Config{})
			if err != nil {
				return nil, err
			}
			agg, per := batch.rates(w.payload(streams))
			aggregate, perQuery = append(aggregate, agg), append(perQuery, per)
			serialized = append(serialized, mbps(int64(k)*w.payload(streams), vtime.Time(int64(k))*t1.makespans[0]))
			wait += batch.admissionWait
		}
		x := strconv.Itoa(k)
		pts = append(pts,
			summarize(x, "aggregate", "Mbps", aggregate),
			summarize(x, "per-query", "Mbps", perQuery),
			summarize(x, "serialized", "Mbps", serialized),
			reading(x, "adm-wait", "us", float64((wait/time.Duration(k*w.Repeats)).Microseconds())))
	}
	return pts, nil
}

type tenantBatch struct {
	makespans     []vtime.Time
	admissionWait time.Duration
}

// rates reduces the batch to (aggregate, mean per-query) Mbps: all payloads
// over the latest tenant completion, and each tenant's payload over its own
// makespan.
func (b tenantBatch) rates(perQueryPayload int64) (aggregate, perQuery float64) {
	tmax := vtime.Time(0)
	var perSum float64
	for _, t := range b.makespans {
		tmax = max(tmax, t)
		perSum += mbps(perQueryPayload, t)
	}
	k := len(b.makespans)
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
			return tenantBatch{}, nil, fmt.Errorf("bench: submit tenant %d: %w", i+1, err)
		}
		qs = append(qs, q)
	}
	kernel.Resume()
	var batch tenantBatch
	for i, q := range qs {
		if _, err := q.Wait(); err != nil {
			return tenantBatch{}, nil, fmt.Errorf("bench: tenant %d (%s): %w", i+1, q.ID(), err)
		}
		mk := q.Makespan()
		if mk <= 0 {
			return tenantBatch{}, nil, fmt.Errorf("bench: tenant %d finished with non-positive makespan %v", i+1, mk)
		}
		batch.makespans = append(batch.makespans, mk)
		batch.admissionWait += q.AdmissionWait()
	}
	var ds []place.Decision
	if p := s.Planner(); p != nil {
		ds = p.Decisions()
	}
	s.Close()
	if err := eng.Reset(); err != nil {
		return tenantBatch{}, nil, fmt.Errorf("bench: reset: %w", err)
	}
	return batch, ds, nil
}

// mbps converts a payload volume over a virtual duration into Mbit/s.
func mbps(payloadBytes int64, t vtime.Time) float64 {
	seconds := t.Sub(0).Seconds()
	if seconds <= 0 {
		return 0
	}
	return float64(payloadBytes) * 8 / seconds / 1e6
}
