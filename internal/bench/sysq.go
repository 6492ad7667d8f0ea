package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"scsq"
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
//     under the owning subsystem's locks, in a turn (vtime.Kernel.Lock).
//  2. Catalog-query latency: `select count(sys_X());` end to end as a
//     session (parse, plan, client drain, session table), the price a
//     dashboard pays per poll.
//  3. Non-perturbation gate: the Figure 6 point-to-point query across the
//     MPI buffer sweep, bare versus with live streamof(sys_metrics()),
//     streamof(sys_resources()) and streamof(sys_tables()) sessions
//     re-polling on every tick of the policy clock — ticked by nothing but
//     the measured query's own progress — 5 pairs per point (3
//     under Tiny) with the side that runs first alternating: the one
//     wall-clock reading that needs repeats. The virtual makespans must be
//     bit-identical in every pair — the figure fails otherwise — so the
//     bare/observed wall-clock medians quantify pure host-side overhead,
//     never simulated interference.

// sysqConfig sizes the system-catalog figure.
type sysqConfig struct {
	snapIters  int   // per-table Snap() iterations
	queryIters int   // per-table full-SCSQL-query iterations
	bufSizes   []int // MPI buffer sweep of the non-perturbation gate
	pairs      int   // bare/observed pairs per buffer size
	w          workload
}

// runSysq runs the figure as committed in BENCH_sysq.json, or a
// seconds-scale smoke under Tiny.
func runSysq(s Sizing) ([]Point, error) {
	if s.Tiny {
		return sysq(sysqConfig{200, 20, []int{30_000}, 3, workload{100_000, 5}})
	}
	return sysq(sysqConfig{2_000, 200, []int{1000, 30_000, 1_000_000}, 5, workload{300_000, 20}})
}

// sysqTables is the measurement order of the latency sections.
var sysqTables = []string{"sys_sessions", "sys_nodes", "sys_links", "sys_rps", "sys_metrics"}

// observedFigure6Run executes one Figure 6 point as a session of a fresh
// engine and returns its virtual makespan and wall-clock duration. With
// observe set, three live catalog readers run beside it as sessions of the
// same engine: streamof(sys_metrics('rp.%')), and streamof(sys_resources())
// and streamof(sys_tables()), which snapshot every device's owner table,
// mid-charge, and the catalog on every tick — the readers whose
// non-perturbation the gate proves. Nothing ticks by hand: the measured
// query's progress advances the policy clock, so the gate covers the
// production tick path. The engine is fresh per run because a live streamof
// session holds its query open, which Reset correctly refuses.
func observedFigure6Run(w workload, bufBytes int, observe bool) (vtime.Time, time.Duration, error) {
	eng, err := scsq.New(scsq.WithMPIBufferBytes(bufBytes))
	if err != nil {
		return 0, 0, err
	}
	var wg sync.WaitGroup
	if observe {
		for _, table := range []string{"sys_metrics('rp.%')", "sys_resources()", "sys_tables()"} {
			sub, err := eng.Submit("select streamof(" + table + ");")
			if err != nil {
				err = errors.Join(err, eng.Close())
				wg.Wait()
				return 0, 0, err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = sub.Wait() // ends when Close cancels the session
			}()
		}
	}

	// The subscribers are already built: the measured statement is a session
	// of its own, whoever else is live.
	t0 := time.Now()
	sess, err := eng.Submit(scsql.Figure5Query(w.ArrayBytes, w.ArrayCount))
	if err == nil {
		_, err = sess.Wait()
	}
	wall := time.Since(t0)

	// The observers stop whether or not the measured query ran.
	err = errors.Join(err, eng.Close())
	wg.Wait()
	if err != nil {
		return 0, 0, err
	}
	return vtime.Time(sess.Makespan()), wall, nil
}

// sysq measures the system-catalog figure. It fails if an active catalog
// subscriber shifts any virtual makespan of the Figure 6 sweep by a single
// tick.
func sysq(cfg sysqConfig) ([]Point, error) {
	// A populated engine for the latency sections: one finished session so
	// every table has real rows (sessions, edges, RP stats, link counters).
	eng, err := core.NewEngine()
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	s := sched.New(eng, nil, sched.Config{})
	defer s.Close()
	sess, err := s.Submit(scsql.Figure5Query(cfg.w.ArrayBytes, cfg.w.ArrayCount))
	if err != nil {
		return nil, err
	}
	if _, err := sess.Wait(); err != nil {
		return nil, err
	}

	// 1. Raw snapshot latency per table, before the catalog queries below add
	// their own sessions to the tables.
	var pts []Point
	k := eng.Env().Kernel()
	for _, name := range sysqTables {
		tab, ok := eng.SystemCatalog().Lookup(name)
		if !ok {
			return nil, fmt.Errorf("bench: sys table %s not registered", name)
		}
		rows := 0
		t0 := time.Now()
		for i := 0; i < cfg.snapIters; i++ {
			k.Lock()
			rs, err := tab.Snap("")
			k.Unlock()
			if err != nil {
				return nil, fmt.Errorf("bench: %s snap: %w", name, err)
			}
			rows = len(rs)
		}
		pts = append(pts, reading(name, "rows", "count", float64(rows)),
			perOp(name, "snap", time.Since(t0), cfg.snapIters))
	}

	// 2. Full catalog-query latency, each query a session.
	for _, name := range sysqTables {
		src := fmt.Sprintf("select count(%s());", name)
		t0 := time.Now()
		for i := 0; i < cfg.queryIters; i++ {
			sess, err := s.Submit(src)
			if err != nil {
				return nil, fmt.Errorf("bench: %s query: %w", name, err)
			}
			if _, err := sess.Wait(); err != nil {
				return nil, fmt.Errorf("bench: %s wait: %w", name, err)
			}
		}
		pts = append(pts, perOp(name, "query", time.Since(t0), cfg.queryIters))
	}
	if err := errors.Join(s.Close(), eng.Close()); err != nil {
		return nil, err
	}

	// 3. The non-perturbation gate over the Figure 6 sweep.
	for _, buf := range cfg.bufSizes {
		var wall [2][]float64 // bare, observed
		for rep := 0; rep < cfg.pairs; rep++ {
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
