package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"scsq/internal/core"
	"scsq/internal/sched"
	"scsq/internal/scsql"
	"scsq/internal/vtime"
)

// This file is the system-catalog figure (`scsq-bench -fig sysq`): it
// measures what introspection costs and proves what it must not cost.
//
//  1. Snapshot latency: wall-clock ns per Snap() of every registered sys_*
//     table on a populated engine — the raw price of one coherent read
//     under the owning subsystem's locks.
//  2. Catalog-query latency: `select count(sys_X());` end to end through
//     the SCSQL evaluator (parse, plan, client drain), the price a
//     dashboard pays per poll.
//  3. Non-perturbation gate: the Figure 6 point-to-point query across the
//     MPI buffer sweep, bare versus with a live streamof(sys_metrics())
//     subscriber re-polling on every tick of the policy clock — ticked by
//     nothing but the measured query's own progress — and sys_resources and
//     sys_tables snapshotted on each of those ticks, Repeats pairs per point
//     with the side that runs first alternating. The virtual makespans must be
//     bit-identical in every pair — the figure fails otherwise — so the
//     bare/observed wall-clock medians quantify pure host-side overhead,
//     never simulated interference.

// sysqConfig sizes the system-catalog figure.
type sysqConfig struct {
	snapIters  int   // per-table Snap() iterations
	queryIters int   // per-table full-SCSQL-query iterations
	bufSizes   []int // MPI buffer sweep of the non-perturbation gate
	w          workload
}

// runSysq runs the figure as committed in BENCH_sysq.json, or a
// seconds-scale smoke under Tiny.
func runSysq(s Sizing) ([]Point, error) {
	if s.Tiny {
		return sysq(sysqConfig{200, 20, []int{30_000}, workload{100_000, 5, s.Repeats}})
	}
	return sysq(sysqConfig{2_000, 200, []int{1000, 30_000, 1_000_000}, workload{300_000, 20, s.Repeats}})
}

// sysqTables is the measurement order of the latency sections.
var sysqTables = []string{"sys_sessions", "sys_nodes", "sys_links", "sys_rps", "sys_metrics"}

// observedFigure6Run executes one Figure 6 point on a fresh engine and
// returns its virtual makespan and wall-clock duration. With observe set, a
// streamof(sys_metrics('rp.%')) drain runs concurrently, and a second reader
// snapshots sys_resources (every device's owner table, mid-charge) and
// sys_tables on every tick — the live catalog readers whose non-perturbation
// the gate proves. Nothing ticks by hand: the measured query's progress
// advances the policy clock, so the gate covers the production tick path.
// The engine is fresh per run because a live streamof drain holds a query
// context open, which Reset correctly refuses.
func observedFigure6Run(w workload, bufBytes int, observe bool) (vtime.Time, time.Duration, error) {
	e, err := core.NewEngine(core.Config{MPIBufferBytes: bufBytes})
	if err != nil {
		return 0, 0, err
	}
	s := sched.New(e, nil)
	ev := scsql.NewEvaluator(e, s.Catalog())

	var wg sync.WaitGroup
	if observe {
		sub, err := ev.Exec(`select streamof(sys_metrics('rp.%'));`)
		if err != nil {
			return 0, 0, err
		}
		resources, _ := e.SystemCatalog().Lookup("sys_resources")
		tables, _ := e.SystemCatalog().Lookup("sys_tables")
		tick, _ := s.SubscribeVTime() // Close below ends the subscription
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _ = sub.Stream.Drain() // ends when Close closes the tick source
		}()
		go func() {
			defer wg.Done()
			for range tick {
				_, _ = resources.Snap("")
				_, _ = tables.Snap("")
			}
		}()
	}

	// The subscriber is already draining: the measured statement is a query of
	// its own, whoever else is live.
	t0 := time.Now()
	res, err := ev.Exec(scsql.Figure5Query(w.ArrayBytes, w.ArrayCount))
	if err == nil {
		_, err = res.Stream.Drain()
	}
	wall := time.Since(t0)

	// The observers stop whether or not the measured query ran.
	if cerr := s.Close(); cerr != nil {
		return 0, 0, errors.Join(err, cerr)
	}
	wg.Wait()
	if err = errors.Join(err, e.Close()); err != nil {
		return 0, 0, err
	}
	return res.Stream.Makespan(), wall, nil
}

// sysq measures the system-catalog figure. It fails if an active catalog
// subscriber shifts any virtual makespan of the Figure 6 sweep by a single
// tick.
func sysq(cfg sysqConfig) ([]Point, error) {
	if err := cfg.w.validate(); err != nil {
		return nil, err
	}
	// A populated engine for the latency sections: one multi-tenant-visible
	// workload so every table has real rows (sessions, edges, RP stats,
	// link counters).
	e, err := core.NewEngine()
	if err != nil {
		return nil, err
	}
	defer e.Close()
	s := sched.New(e, nil)
	defer s.Close()
	ev := scsql.NewEvaluator(e, s.Catalog())
	q, err := s.Submit(scsql.Figure5Query(cfg.w.ArrayBytes, cfg.w.ArrayCount))
	if err != nil {
		return nil, err
	}
	if _, err := q.Wait(); err != nil {
		return nil, err
	}

	// 1. Raw snapshot latency per table, before the catalog queries below add
	// their own sessions to the tables.
	var pts []Point
	for _, name := range sysqTables {
		tab, ok := e.SystemCatalog().Lookup(name)
		if !ok {
			return nil, fmt.Errorf("bench: sys table %s not registered", name)
		}
		rows := 0
		t0 := time.Now()
		for i := 0; i < cfg.snapIters; i++ {
			rs, err := tab.Snap("")
			if err != nil {
				return nil, fmt.Errorf("bench: %s snap: %w", name, err)
			}
			rows = len(rs)
		}
		pts = append(pts, reading(name, "rows", "count", float64(rows)),
			perOp(name, "snap", time.Since(t0), cfg.snapIters))
	}

	// 2. Full catalog-query latency through the evaluator.
	for _, name := range sysqTables {
		src := fmt.Sprintf("select count(%s());", name)
		t0 := time.Now()
		for i := 0; i < cfg.queryIters; i++ {
			res, err := ev.Exec(src)
			if err != nil {
				return nil, fmt.Errorf("bench: %s query: %w", name, err)
			}
			if _, err := res.Stream.Drain(); err != nil {
				return nil, fmt.Errorf("bench: %s drain: %w", name, err)
			}
		}
		pts = append(pts, perOp(name, "query", time.Since(t0), cfg.queryIters))
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	if err := e.Close(); err != nil {
		return nil, err
	}

	// 3. The non-perturbation gate over the Figure 6 sweep.
	for _, buf := range cfg.bufSizes {
		var wall [2][]float64 // bare, observed
		for rep := 0; rep < cfg.w.Repeats; rep++ {
			var mk [2]vtime.Time
			for i := 0; i < 2; i++ {
				side := (rep + i) % 2 // alternate which side runs first
				m, d, err := observedFigure6Run(cfg.w, buf, side == 1)
				if err != nil {
					return nil, fmt.Errorf("bench: sysq buf=%d observed=%v: %w", buf, side == 1, err)
				}
				mk[side], wall[side] = m, append(wall[side], float64(d.Microseconds())/1e3)
			}
			if mk[0] != mk[1] {
				return nil, fmt.Errorf(
					"bench: catalog subscriber perturbed the schedule at buf=%d: bare makespan %v, observed %v",
					buf, mk[0], mk[1])
			}
		}
		x := fmt.Sprintf("buf=%d", buf)
		pts = append(pts, median(x, "bare", "ms", wall[0]), median(x, "observed", "ms", wall[1]))
	}
	return pts, nil
}

// perOp is a latency point: the mean wall time of iters operations timed
// as one batch, so it carries no spread.
func perOp(x, series string, total time.Duration, iters int) Point {
	return Point{X: x, Series: series, Unit: "ns/op", Value: float64(total.Nanoseconds()) / float64(iters), N: iters}
}
