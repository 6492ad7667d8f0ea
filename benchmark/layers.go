package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"scsq"
	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/place"
	"scsq/internal/sched"
	"scsq/internal/scsql"
)

// perLayer is what the traced run prints: spans around the public calls of
// each module (self time, p50 per op), direct-call probes, counts that must
// repeat exactly at a fixed seed, and tail/drift figures that are reported
// but too noisy to gate. README.md says which end-to-end metric, on which
// workload, each one should move.
var perLayer = []metricDef{
	// Spans. Every workload's statements are replayed along both paths: in
	// process (scsql.*, core.*) and over the wire (client.*), so each span
	// has a value on each workload.
	{name: "scsql.parse_us", unit: "us", better: "lower"},
	{name: "scsql.exec_us", unit: "us", better: "lower"},
	{name: "core.drain_us", unit: "us", better: "lower"},
	{name: "core.reset_us", unit: "us", better: "lower"},
	{name: "client.submit_us", unit: "us", better: "lower"},
	{name: "client.first_row_us", unit: "us", better: "lower"},
	{name: "client.rows_us", unit: "us", better: "lower"},
	{name: "client.done_us", unit: "us", better: "lower"},
	{name: "sched.session_us", unit: "us", better: "lower"},
	{name: "server.wire_overhead_us", unit: "us", better: "lower"},
	{name: "scsq.layer_sum_ratio", unit: "ratio", better: "higher"},
	// Probes: ns (or µs, ms) and allocations per direct call, with the
	// workload's own element and frame sizes.
	{name: "marshal.append_ns", unit: "ns", better: "lower"},
	{name: "marshal.append_allocs", unit: "count", better: "lower"},
	{name: "marshal.decode_ns", unit: "ns", better: "lower"},
	{name: "marshal.decode_allocs", unit: "count", better: "lower"},
	{name: "vtime.useas_ns", unit: "ns", better: "lower"},
	{name: "vtime.useas_allocs", unit: "count", better: "lower"},
	{name: "vtime.txn_commit_ns", unit: "ns", better: "lower"},
	{name: "vtime.txn_commit_allocs", unit: "count", better: "lower"},
	{name: "mpicar.send_ns", unit: "ns", better: "lower"},
	{name: "mpicar.send_allocs", unit: "count", better: "lower"},
	{name: "tcpcar.send_ns", unit: "ns", better: "lower"},
	{name: "tcpcar.send_allocs", unit: "count", better: "lower"},
	{name: "rp.push_ns_per_frame", unit: "ns", better: "lower"},
	{name: "rp.push_allocs_per_frame", unit: "count", better: "lower"},
	{name: "rp.recv_ns_per_frame", unit: "ns", better: "lower"},
	{name: "rp.recv_allocs_per_frame", unit: "count", better: "lower"},
	{name: "place.plan_us", unit: "us", better: "lower"},
	{name: "place.plan_allocs", unit: "count", better: "lower"},
	{name: "cndb.select_release_ns", unit: "ns", better: "lower"},
	{name: "cndb.select_release_allocs", unit: "count", better: "lower"},
	{name: "coord.bg_place_us", unit: "us", better: "lower"},
	{name: "coord.bg_place_allocs", unit: "count", better: "lower"},
	{name: "core.new_engine_ms", unit: "ms", better: "lower"},
	{name: "core.new_engine_allocs", unit: "count", better: "lower"},
	{name: "wire.append_row_ns", unit: "ns", better: "lower"},
	{name: "wire.append_row_allocs", unit: "count", better: "lower"},
	{name: "wire.read_row_ns", unit: "ns", better: "lower"},
	{name: "wire.read_row_allocs", unit: "count", better: "lower"},
	{name: "hw.contention_scan_ns", unit: "ns", better: "lower"},
	{name: "hw.contention_scan_allocs", unit: "count", better: "lower"},
	// Counts.
	{name: "carrier.frames_per_op", unit: "count", better: "lower"},
	{name: "carrier.bytes_per_op", unit: "count", better: "lower"},
	{name: "rp.elements_per_op", unit: "count", better: "lower"},
	{name: "server.frames_out_per_op", unit: "count", better: "lower"},
	{name: "server.rows_per_frame", unit: "ratio", better: "higher"},
	{name: "sched.admitted_per_op", unit: "count", better: "lower"},
	{name: "sched.retried_per_op", unit: "count", better: "lower"},
	{name: "metrics.keys_end", unit: "count", better: "lower"},
	{name: "runtime.gc_cycles_per_op", unit: "count", better: "lower"},
	{name: "runtime.heap_live_mb_end", unit: "MB", better: "lower"},
	{name: "runtime.goroutines_end", unit: "count", better: "lower"},
	{name: "vtime.makespan_exact_ratio", unit: "ratio", better: "higher"},
	{name: "vtime.virtual_mbps", unit: "Mbit/s", better: "higher"},
	// Timings, tail and drift. The first four are the untraced run's
	// reported timings taken on the traced run's native loop.
	{name: "scsq.ops_per_s", unit: "1/s", better: "higher"},
	{name: "scsq.op_ms_p50", unit: "ms", better: "lower"},
	{name: "scsq.ttfr_ms_p50", unit: "ms", better: "lower"},
	{name: "scsq.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "scsq.op_ms_p90", unit: "ms", better: "lower"},
	{name: "scsq.op_ms_p99", unit: "ms", better: "lower"},
	{name: "scsq.op_ms_max", unit: "ms", better: "lower"},
	{name: "scsq.host_us_per_frame", unit: "us", better: "lower"},
	{name: "scsq.drift_ratio", unit: "ratio", better: "lower"},
	{name: "scsq.trace_overhead_pct", unit: "%", better: "lower"},
}

// twin is scsq.New's wiring repeated with the internals in reach, so the
// benchmark can put a span around each layer's public call (scsql.Parse,
// Evaluator.ExecStatement, Stream.Drain, Engine.Reset) and submit sessions
// without a wire. End-to-end metrics never come from a twin.
type twin struct {
	core *core.Engine
	sch  *sched.Scheduler
	ev   *scsql.Evaluator
}

func newTwin(w workload) (*twin, error) {
	env, err := hw.NewLOFAR()
	if err != nil {
		return nil, err
	}
	copts := []core.Option{core.WithEnv(env)}
	if w.mpiBuf > 0 {
		copts = append(copts, core.WithMPIBufferBytes(w.mpiBuf))
	}
	c, err := core.NewEngine(copts...)
	if err != nil {
		return nil, err
	}
	var sopts []sched.Option
	if w.planner {
		sopts = append(sopts, sched.WithPlacementPlanner(place.Config{Objective: place.AggregateThroughput}))
	}
	sch := sched.New(c, nil, sopts...)
	return &twin{core: c, sch: sch, ev: scsql.NewEvaluator(c, sch.Catalog())}, nil
}

// op is inProcess.op with a span around each layer's call.
func (t *twin) op(st statement, rec *recorder) (outcome, error) {
	var o outcome
	t0 := time.Now()
	sp := rec.begin("scsql.parse")
	stmt, err := scsql.Parse(st.src)
	rec.end(sp)
	if err != nil {
		return o, err
	}
	sp = rec.begin("scsql.exec")
	res, err := t.ev.ExecStatement(stmt)
	rec.end(sp)
	if err != nil {
		return o, err
	}
	sp = rec.begin("core.drain")
	els, err := res.Stream.Drain()
	rec.end(sp)
	if err != nil {
		return o, err
	}
	o.firstRow = time.Since(t0)
	o.makespan = res.Stream.Makespan().Sub(0).Std()
	for _, el := range els {
		if err := o.accumulate(el.Value); err != nil {
			return o, err
		}
	}
	sp = rec.begin("core.reset")
	err = t.core.Reset()
	rec.end(sp)
	return o, err
}

func (t *twin) snapshot() scsq.MetricsSnapshot { return t.core.MetricsSnapshot() }

func (t *twin) close() error {
	if err := t.sch.Close(); err != nil {
		return err
	}
	return t.core.Close()
}

// newTraceable builds a system whose op records spans: the served system,
// or the in-process twin.
func newTraceable(w workload, overWire bool) (system, error) {
	if overWire {
		return newServed(w)
	}
	return newTwin(w)
}

// sessions adapts a twin to run each statement as a scheduler session
// (Submit + Wait), never Reset: the served path minus server, wire and
// client.
type sessions struct{ *twin }

func (s sessions) op(st statement, _ *recorder) (outcome, error) {
	var o outcome
	q, err := s.sch.Submit(st.src)
	if err != nil {
		return o, err
	}
	els, err := q.Wait()
	if err != nil {
		return o, err
	}
	for _, el := range els {
		if err := o.accumulate(el.Value); err != nil {
			return o, err
		}
	}
	return o, nil
}

// loopStats is what one traced loop over a system yields.
type loopStats struct {
	rec      *recorder
	opMs     []float64 // every op, traced or not
	tracedMs []float64
	plainMs  []float64
	firstMs  []float64       // time to first result, every op
	makespan []time.Duration // virtual, per op; zero over the wire
	wall     time.Duration
	cpu      time.Duration
	before   scsq.MetricsSnapshot
	after    scsq.MetricsSnapshot
	gcCycles uint32
}

// tracedLoop warms sys up and runs stmts through it, tracing every second
// op when alternate is set (the untraced half is the baseline of
// scsq.trace_overhead_pct: same system, same drift, interleaved) and every
// op otherwise.
func tracedLoop(w workload, sys system, lane string, epoch time.Time, warm, stmts []statement, inProc, alternate bool, t *tally) loopStats {
	ls := loopStats{rec: newRecorder(lane, epoch)}
	for _, st := range warm {
		_, _, err := checkedOp(w, sys, st, nil, inProc)
		t.add(err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ls.before = sys.snapshot()
	start, cpu0 := time.Now(), cpuTime()
	for i, st := range stmts {
		rec := ls.rec
		if alternate && i%2 == 1 {
			rec = nil
		}
		o, took, err := checkedOp(w, sys, st, rec, inProc)
		t.add(err)
		d := ms(took)
		ls.opMs = append(ls.opMs, d)
		ls.firstMs = append(ls.firstMs, ms(o.firstRow))
		if rec != nil {
			ls.tracedMs = append(ls.tracedMs, d)
		} else {
			ls.plainMs = append(ls.plainMs, d)
		}
		ls.makespan = append(ls.makespan, o.makespan)
	}
	ls.wall, ls.cpu = time.Since(start), cpuTime()-cpu0
	ls.after = sys.snapshot()
	runtime.ReadMemStats(&m1)
	ls.gcCycles = m1.NumGC - m0.NumGC
	return ls
}

// counterDelta sums the growth of every counter with the prefix.
func (ls loopStats) counterDelta(prefix string) float64 {
	return float64(ls.after.SumCounters(prefix) - ls.before.SumCounters(prefix))
}

// runTraced is the -trace 1 run. It drives w's statements through three
// systems in turn — the native one, the other path (over the wire for an
// in-process workload, in process for a served one) and a scheduler-only
// twin — then probes the layers directly, writes the spans to
// <outDir>/<workload>.trace.json and returns the per-layer metrics.
func runTraced(w workload, seed int64, sz sizing, outDir string) (map[string]float64, tally, error) {
	var t tally
	epoch := time.Now()
	nNative := max(4, sz.ops(w)/2)
	nOther := max(2, sz.ops(w)/6)
	nWarm := max(1, sz.warmup(w)/2)
	stmts := statements(w, seed, nWarm+nNative)
	warm, native := stmts[:nWarm], stmts[nWarm:]
	other := native[:nOther]

	// Native path, then the other one: over the wire for an in-process
	// workload, in process for a served one.
	sys, err := newTraceable(w, w.served)
	if err != nil {
		return nil, t, err
	}
	nat := tracedLoop(w, sys, "native:"+w.name, epoch, warm, native, !w.served, true, &t)
	goroutines := runtime.NumGoroutine()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	heapLive := float64(m.HeapAlloc) / 1e6
	if err := sys.close(); err != nil {
		return nil, t, err
	}
	if sys, err = newTraceable(w, !w.served); err != nil {
		return nil, t, err
	}
	replay := tracedLoop(w, sys, "replay:"+w.name, epoch, warm, other, w.served, false, &t)
	if err := sys.close(); err != nil {
		return nil, t, err
	}
	inproc, wire := nat, replay
	if w.served {
		inproc, wire = replay, nat
	}
	// Scheduler sessions without the wire; the twin then serves the
	// contention-scan probe, which needs an engine that has run sessions.
	tw, err := newTwin(w)
	if err != nil {
		return nil, t, err
	}
	defer tw.close()
	ses := tracedLoop(w, sessions{tw}, "sessions:"+w.name, epoch, warm, other, false, false, &t)

	v := make(map[string]float64, len(perLayer))
	inSelf, wireSelf := inproc.rec.selfTimes(), wire.rec.selfTimes()
	for _, name := range []string{"scsql.parse", "scsql.exec", "core.drain", "core.reset"} {
		v[name+"_us"] = median(inSelf[name])
	}
	for _, name := range []string{"client.submit", "client.first_row", "client.rows", "client.done"} {
		v[name+"_us"] = median(wireSelf[name])
	}
	v["sched.session_us"] = 1e3 * median(ses.opMs)
	v["server.wire_overhead_us"] = 1e3*median(wire.opMs) - v["sched.session_us"]
	v["scsq.layer_sum_ratio"] = median(inproc.rec.childShare("scsq.op"))

	n := float64(len(nat.opMs))
	frames := nat.counterDelta("link.frames.")
	v["carrier.frames_per_op"] = frames / n
	v["carrier.bytes_per_op"] = nat.counterDelta("link.bytes.") / n
	v["rp.elements_per_op"] = nat.counterDelta("rp.elements_out.") / n
	v["sched.admitted_per_op"] = nat.counterDelta("sched.admitted") / n
	v["sched.retried_per_op"] = nat.counterDelta("sched.retried") / n
	v["metrics.keys_end"] = float64(len(nat.after.Counters) + len(nat.after.Gauges) + len(nat.after.Histograms))
	framesOut := wire.counterDelta("server.frames.out")
	v["server.frames_out_per_op"] = framesOut / float64(len(wire.opMs))
	rows := 0
	for _, st := range native[:len(wire.opMs)] {
		rows += st.rows
	}
	v["server.rows_per_frame"] = ratio(float64(rows), framesOut)
	v["runtime.gc_cycles_per_op"] = float64(nat.gcCycles) / n
	v["runtime.heap_live_mb_end"] = heapLive
	v["runtime.goroutines_end"] = float64(goroutines)

	exact := 0
	var mbps []float64
	for i, mk := range inproc.makespan {
		st := native[i]
		if want, ok := goldenMakespan(w, st); ok && mk == want {
			exact++
		}
		if mk > 0 {
			mbps = append(mbps, float64(st.payloadBytes)*8/mk.Seconds()/1e6)
		}
	}
	v["vtime.makespan_exact_ratio"] = float64(exact) / float64(len(inproc.makespan))
	v["vtime.virtual_mbps"] = median(mbps)

	v["scsq.ops_per_s"] = n / nat.wall.Seconds()
	v["scsq.op_ms_p50"] = median(nat.opMs)
	v["scsq.ttfr_ms_p50"] = median(nat.firstMs)
	v["scsq.cpu_ms_per_op"] = ms(nat.cpu) / n
	v["scsq.op_ms_p90"] = quantile(nat.opMs, 0.90)
	v["scsq.op_ms_p99"] = quantile(nat.opMs, 0.99)
	v["scsq.op_ms_max"] = quantile(nat.opMs, 1)
	v["scsq.host_us_per_frame"] = ratio(us(nat.wall), frames)
	edge := max(1, len(nat.opMs)/20)
	v["scsq.drift_ratio"] = mean(nat.opMs[len(nat.opMs)-edge:]) / mean(nat.opMs[:edge])
	v["scsq.trace_overhead_pct"] = 100 * (median(nat.tracedMs) - median(nat.plainMs)) / median(nat.plainMs)

	if err := runProbes(w, tw, sz.scale, v); err != nil {
		return nil, t, err
	}

	counts := make(map[string]float64)
	for name, val := range v {
		if strings.HasSuffix(name, "_per_op") || strings.HasSuffix(name, "_end") {
			counts[name] = val
		}
	}
	path := filepath.Join(outDir, w.name+".trace.json")
	if err := writeTrace(path, counts, nat.rec, replay.rec, ses.rec); err != nil {
		return nil, t, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace=%s spans=%d\n", path, len(nat.rec.spans)+len(replay.rec.spans)+len(ses.rec.spans))
	return v, t, nil
}

// ratio is a/b, 0 when the workload has none of b (no carrier frame moves
// on serve_rows).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
