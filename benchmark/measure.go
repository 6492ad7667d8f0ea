package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// overrunFactor stops a timed loop that has run this many times -seconds:
// a host far slower than the reference one must still finish inside the
// driver's per-run limit. The ops not run are not attempted.
const overrunFactor = 8

// setUp builds w's system and runs the fixed warm-up, every op checked
// against the golden file. Failures are tallied; a system that cannot be
// built is an error.
func setUp(w workload, warm []statement, t *tally) (system, error) {
	sys, err := build(w)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", w.name, err)
	}
	for _, st := range warm {
		_, _, err := checkedOp(w, sys, st, nil, !w.served)
		t.add(err)
	}
	return sys, nil
}

// checkedOp runs one op under a root span and verifies it; it returns the
// outcome and the op's wall time. inProc says the outcome carries a virtual
// makespan to check.
func checkedOp(w workload, sys system, st statement, rec *recorder, inProc bool) (outcome, time.Duration, error) {
	rec.nextOp()
	t0 := time.Now()
	root := rec.begin("scsq.op")
	o, err := sys.op(st, rec)
	rec.end(root)
	d := time.Since(t0)
	if err == nil {
		err = verify(w, st, o, inProc)
	}
	return o, d, err
}

// runEndToEnd is the untraced run: set-up several times, one GC, then the
// fixed number of closed-loop ops from this goroutine. It returns the
// end-to-end metrics and, apart from them, the reported timings.
func runEndToEnd(w workload, seed int64, sz sizing) (values, timings map[string]float64, t tally, err error) {
	nOps, nWarm := sz.ops(w), sz.warmup(w)
	stmts := statements(w, seed, nWarm+nOps)
	warm, timed := stmts[:nWarm], stmts[nWarm:]

	var sys system
	setups := make([]float64, 0, sz.setups)
	for i := 0; i < sz.setups; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, nil, t, fmt.Errorf("close %s: %w", w.name, err)
			}
		}
		t0 := time.Now()
		if sys, err = setUp(w, warm, &t); err != nil {
			return nil, nil, t, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.close()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	ops := make([]float64, 0, nOps)
	firsts := make([]float64, 0, nOps)
	deadline := time.Duration(overrunFactor * sz.seconds * float64(time.Second))
	start, cpu0 := time.Now(), cpuTime()
	for _, st := range timed {
		o, d, err := checkedOp(w, sys, st, nil, !w.served)
		t.add(err)
		ops = append(ops, ms(d))
		firsts = append(firsts, ms(o.firstRow))
		if time.Since(start) > deadline {
			break
		}
	}
	wall, cpu := time.Since(start), cpuTime()-cpu0
	runtime.ReadMemStats(&m1)
	done := float64(len(ops))

	values = map[string]float64{
		"setup_s":         median(setups),
		"cpu_cores_busy":  cpu.Seconds() / wall.Seconds(),
		"allocs_per_op":   float64(m1.Mallocs-m0.Mallocs) / done,
		"alloc_kb_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3 / done,
		"rss_mb_peak":     float64(peakRSSKB()) / 1e3,
	}
	timings = map[string]float64{
		"ops_per_s":     done / wall.Seconds(),
		"op_ms_p50":     median(ops),
		"ttfr_ms_p50":   median(firsts),
		"cpu_ms_per_op": ms(cpu) / done,
	}
	return values, timings, t, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSKB is the process's peak resident set (ru_maxrss, kB on Linux).
func peakRSSKB() int64 { return rusage().Maxrss }

// quantile reads the q-quantile (nearest rank) of xs; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
