package bench

import (
	"fmt"
	"io"
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
//     subscriber being ticked concurrently. The virtual makespans must be
//     bit-identical at every point — RunSysq fails otherwise — so the
//     report's bare/observed wall-clock pairs quantify pure host-side
//     overhead, never simulated interference.
//
// Results use the PerfReport JSON format and land in BENCH_sysq.json.

// SysqConfig parameterizes the system-catalog figure.
type SysqConfig struct {
	// SnapIters is the per-table Snap() iteration count.
	SnapIters int
	// QueryIters is the per-table full-SCSQL-query iteration count.
	QueryIters int
	// BufSizes is the MPI buffer sweep of the non-perturbation gate.
	BufSizes []int
	// ArrayBytes and ArrayCount shape the gate's Figure 6 workload.
	ArrayBytes int
	ArrayCount int
}

// DefaultSysq is the full figure as recorded in BENCH_sysq.json.
func DefaultSysq() SysqConfig {
	return SysqConfig{
		SnapIters:  2_000,
		QueryIters: 200,
		BufSizes:   []int{1000, 30_000, 1_000_000},
		ArrayBytes: 300_000,
		ArrayCount: 20,
	}
}

// TinySysq is a seconds-scale smoke configuration for CI.
func TinySysq() SysqConfig {
	return SysqConfig{
		SnapIters:  200,
		QueryIters: 20,
		BufSizes:   []int{30_000},
		ArrayBytes: 100_000,
		ArrayCount: 5,
	}
}

// sysqTables is the measurement order of the latency sections.
var sysqTables = []string{"sys_sessions", "sys_nodes", "sys_links", "sys_rps", "sys_metrics"}

// observedFigure6Run executes one Figure 6 point on a fresh engine and
// returns its virtual makespan and wall-clock duration. With observe set, a
// streamof(sys_metrics('rp.%')) drain runs concurrently, paced by a
// goroutine ticking the scheduler's virtual policy clock the whole run —
// the live catalog subscriber whose non-perturbation the gate proves. The
// engine is fresh per run because a live streamof drain holds a query
// context open, which Reset correctly refuses.
func observedFigure6Run(cfg SysqConfig, bufBytes int, observe bool) (vtime.Time, time.Duration, error) {
	e, err := core.NewEngine(core.WithMPIBufferBytes(bufBytes))
	if err != nil {
		return 0, 0, err
	}
	s := sched.New(e, nil)
	ev := scsql.NewEvaluator(e, s.Catalog())

	// The measured query is built before the subscriber starts draining: the
	// two implicit statements share one build target, so a subscriber already
	// draining would start the measured query's SPs half-wired.
	t0 := time.Now()
	res, err := ev.Exec(scsql.Figure5Query(cfg.ArrayBytes, cfg.ArrayCount))
	if err != nil {
		return 0, 0, err
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	if observe {
		sub, err := ev.Exec(`select streamof(sys_metrics('rp.%'));`)
		if err != nil {
			return 0, 0, err
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _ = sub.Stream.Drain() // ends when Close closes the tick source
		}()
		go func() {
			defer wg.Done()
			var vt vtime.Time
			for {
				select {
				case <-stop:
					return
				default:
					vt = vt.Add(vtime.Millisecond)
					s.ObserveVTime(vt)
					time.Sleep(50 * time.Microsecond)
				}
			}
		}()
	}

	if _, err := res.Stream.Drain(); err != nil {
		return 0, 0, err
	}
	wall := time.Since(t0)
	makespan := res.Stream.Makespan()

	close(stop)
	if err := s.Close(); err != nil {
		return 0, 0, err
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		return 0, 0, err
	}
	return makespan, wall, nil
}

// RunSysq measures the system-catalog figure and returns the
// BENCH_sysq.json report. It fails if an active catalog subscriber shifts
// any virtual makespan of the Figure 6 sweep by a single tick.
func RunSysq(cfg SysqConfig) (PerfReport, error) {
	report := NewPerfReport()

	// A populated engine for the latency sections: one multi-tenant-visible
	// workload so every table has real rows (sessions, edges, RP stats,
	// link counters).
	e, err := core.NewEngine()
	if err != nil {
		return PerfReport{}, err
	}
	s := sched.New(e, nil)
	ev := scsql.NewEvaluator(e, s.Catalog())
	q, err := s.Submit(scsql.Figure5Query(cfg.ArrayBytes, cfg.ArrayCount))
	if err != nil {
		return PerfReport{}, err
	}
	if _, err := q.Wait(); err != nil {
		return PerfReport{}, err
	}

	// 1. Raw snapshot latency per table.
	for _, name := range sysqTables {
		tab, ok := e.SystemCatalog().Lookup(name)
		if !ok {
			return PerfReport{}, fmt.Errorf("bench: sys table %s not registered", name)
		}
		rows := 0
		t0 := time.Now()
		for i := 0; i < cfg.SnapIters; i++ {
			rs, err := tab.Snap("")
			if err != nil {
				return PerfReport{}, fmt.Errorf("bench: %s snap: %w", name, err)
			}
			rows = len(rs)
		}
		report.Results = append(report.Results, PerfResult{
			Name:       fmt.Sprintf("syscat/snap/%s/rows=%d", name, rows),
			Iterations: cfg.SnapIters,
			NsPerOp:    float64(time.Since(t0).Nanoseconds()) / float64(cfg.SnapIters),
		})
	}

	// 2. Full catalog-query latency through the evaluator.
	for _, name := range sysqTables {
		src := fmt.Sprintf("select count(%s());", name)
		t0 := time.Now()
		for i := 0; i < cfg.QueryIters; i++ {
			res, err := ev.Exec(src)
			if err != nil {
				return PerfReport{}, fmt.Errorf("bench: %s query: %w", name, err)
			}
			if _, err := res.Stream.Drain(); err != nil {
				return PerfReport{}, fmt.Errorf("bench: %s drain: %w", name, err)
			}
		}
		report.Results = append(report.Results, PerfResult{
			Name:       fmt.Sprintf("syscat/query/%s", name),
			Iterations: cfg.QueryIters,
			NsPerOp:    float64(time.Since(t0).Nanoseconds()) / float64(cfg.QueryIters),
		})
	}
	if err := s.Close(); err != nil {
		return PerfReport{}, err
	}
	if err := e.Close(); err != nil {
		return PerfReport{}, err
	}

	// 3. The non-perturbation gate over the Figure 6 sweep.
	for _, buf := range cfg.BufSizes {
		bareMk, bareWall, err := observedFigure6Run(cfg, buf, false)
		if err != nil {
			return PerfReport{}, fmt.Errorf("bench: sysq bare buf=%d: %w", buf, err)
		}
		obsMk, obsWall, err := observedFigure6Run(cfg, buf, true)
		if err != nil {
			return PerfReport{}, fmt.Errorf("bench: sysq observed buf=%d: %w", buf, err)
		}
		if bareMk != obsMk {
			return PerfReport{}, fmt.Errorf(
				"bench: catalog subscriber perturbed the schedule at buf=%d: bare makespan %v, observed %v",
				buf, bareMk, obsMk)
		}
		report.Results = append(report.Results, PerfResult{
			Name:       fmt.Sprintf("syscat/fig6/bare/buf=%d", buf),
			Iterations: 1,
			NsPerOp:    float64(bareWall.Nanoseconds()),
		})
		report.Results = append(report.Results, PerfResult{
			Name:       fmt.Sprintf("syscat/fig6/observed/buf=%d", buf),
			Iterations: 1,
			NsPerOp:    float64(obsWall.Nanoseconds()),
		})
	}
	return report, nil
}

// WriteSysq renders the system-catalog figure as a text table, followed by
// the non-perturbation verdict.
func WriteSysq(w io.Writer, cfg SysqConfig, r PerfReport) error {
	if err := writePerfTable(w, "System catalog benchmarks", r); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"non-perturbation gate: virtual makespans bit-identical with a live streamof(sys_metrics) subscriber at %d buffer size(s)\n",
		len(cfg.BufSizes))
	return err
}

// CSVSysq renders the figure machine-readable for the CI artifact.
func CSVSysq(w io.Writer, r PerfReport) error {
	if _, err := fmt.Fprintln(w, "name,iterations,ns_per_op"); err != nil {
		return err
	}
	for _, res := range r.Results {
		if _, err := fmt.Fprintf(w, "%s,%d,%.1f\n", res.Name, res.Iterations, res.NsPerOp); err != nil {
			return err
		}
	}
	return nil
}
