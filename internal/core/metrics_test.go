package core

import (
	"reflect"
	"strings"
	"testing"

	"scsq/internal/chaos"
	"scsq/internal/hw"
	"scsq/internal/metrics"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// TestTelemetryDoesNotPerturbSchedule is the tentpole's hard constraint:
// enabling the tracer (and the always-on registry) must leave the virtual
// schedule bit-for-bit unchanged. The Figure 6 workload's makespan with
// tracing on equals the makespan with tracing off.
func TestTelemetryDoesNotPerturbSchedule(t *testing.T) {
	run := func(opts ...Option) vtime.Time {
		e, err := NewEngine(opts...)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		defer e.Close()
		cs := figure5(t, e, 30_000, 10)
		if _, err := cs.One(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		return cs.Makespan()
	}
	plain := run()
	traced := run(Config{Tracer: metrics.NewTracer(0)})
	if plain != traced {
		t.Fatalf("tracing perturbed the schedule: makespan %v (off) vs %v (on)", plain, traced)
	}
}

// TestLinkByteCountersBalance checks the counting-path identity on a clean
// run: bytes counted at the carrier links and at the receivers are the same
// bytes, and they exceed the query's payload volume (the difference is the
// marshal framing). No sender counts what its link counts: a run has no
// send.* counter.
func TestLinkByteCountersBalance(t *testing.T) {
	const size, count = 30_000, 10
	e, err := NewEngine()
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer e.Close()
	cs := figure5(t, e, size, count)
	if _, err := cs.One(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	snap := e.MetricsSnapshot()
	link := snap.SumCounters("link.bytes.")
	recv := snap.SumCounters("recv.bytes.")
	if link == 0 {
		t.Fatal("no link bytes recorded")
	}
	if link != recv {
		t.Fatalf("byte counters disagree: link=%d recv=%d", link, recv)
	}
	for name := range snap.Counters {
		if strings.HasPrefix(name, "send.") {
			t.Fatalf("a sender counter %s beside its link's", name)
		}
	}
	if link <= size*count {
		t.Fatalf("link bytes %d should exceed the %d payload bytes (marshal framing)", link, size*count)
	}
	if lf, rf := snap.SumCounters("link.frames."), snap.SumCounters("recv.frames."); lf == 0 || lf != rf {
		t.Fatalf("frame counters disagree: link=%d recv=%d", lf, rf)
	}
	// The a→b stream crosses an MPI link; the b→client stream crosses TCP.
	if mpi := snap.SumCounters("link.bytes.mpi:"); mpi == 0 {
		t.Fatal("no MPI link bytes recorded")
	}
	if tcp := snap.SumCounters("link.bytes.tcp:"); tcp == 0 {
		t.Fatal("no TCP link bytes recorded")
	}
}

// chaosTelemetryRun executes a seeded merge whose frames are delayed, a
// chaos run that completes, and returns the drained value plus the
// deterministic metrics view. (A run that fails is no witness: which frames
// a failing query's processes still move before the failure reaches them is
// not a function of the seed.)
func chaosTelemetryRun(t *testing.T) (any, metrics.Snapshot) {
	t.Helper()
	const size, count, nGens = 30_000, 6, 3
	inj := chaos.New(42, chaos.DelayRate(0.3, 200*vtime.Microsecond))
	e, err := NewEngine(Config{Chaos: inj, Tracer: metrics.NewTracer(0)})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer e.Close()
	gen := func(*PlanBuilder) (sqep.Operator, error) {
		return sqep.NewGenArray(size, count), nil
	}
	subs := make([]Subquery, nGens)
	for i := range subs {
		subs[i] = gen
	}
	q := beginQuery(t, e)
	a, err := spv(q, subs, hw.BlueGene, mustSeq(t, 1, 2, 3))
	if err != nil {
		t.Fatalf("spv: %v", err)
	}
	b, err := q.SP(func(pb *PlanBuilder) (sqep.Operator, error) {
		in, err := pb.Merge(a)
		if err != nil {
			return nil, err
		}
		return sqep.NewStreamOf(sqep.NewCount(in)), nil
	}, hw.BlueGene, mustSeq(t, 0))
	if err != nil {
		t.Fatalf("sp merge: %v", err)
	}
	cs, err := q.Extract(b)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	v, err := cs.One()
	if err != nil {
		t.Fatalf("drain under chaos: %v", err)
	}
	return v, e.MetricsSnapshot().Deterministic()
}

// TestSameSeedRunsProduceIdenticalHistograms runs the deterministic Figure 6
// workload twice and compares the full deterministic metric views —
// counters, gauges, and histogram bucket contents, sums, minima and maxima
// — for bit-for-bit equality.
func TestSameSeedRunsProduceIdenticalHistograms(t *testing.T) {
	run := func() metrics.Snapshot {
		e, err := NewEngine(Config{Tracer: metrics.NewTracer(0)})
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		defer e.Close()
		cs := figure5(t, e, 30_000, 10)
		if _, err := cs.One(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		return e.MetricsSnapshot().Deterministic()
	}
	s1, s2 := run(), run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("deterministic snapshots differ:\nrun1: %+v\nrun2: %+v", s1, s2)
	}
	if len(s1.Histograms) == 0 {
		t.Fatal("no histograms recorded")
	}
}

// TestSeededChaosTelemetryIsDeterministic runs the same seeded fault
// scenario twice with telemetry and tracing enabled: the result and the
// whole deterministic metrics view — counters, gauges and histograms — must
// be identical.
func TestSeededChaosTelemetryIsDeterministic(t *testing.T) {
	v1, s1 := chaosTelemetryRun(t)
	v2, s2 := chaosTelemetryRun(t)
	if v1 != int64(3*6) || v1 != v2 {
		t.Fatalf("results %v and %v, want 18 both times", v1, v2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("deterministic snapshots differ:\nrun1: %+v\nrun2: %+v", s1, s2)
	}
	if got := s1.Counters["chaos.delay"]; got == 0 {
		t.Fatal("chaos.delay = 0: the scenario injected no fault")
	}
}

// TestTracerRecordsFrameJourney checks the trace surface end to end: a
// traced run emits sender flush spans, carrier transfer spans and receiver
// demarshal spans that share the per-frame trace IDs.
func TestTracerRecordsFrameJourney(t *testing.T) {
	tr := metrics.NewTracer(0)
	e, err := NewEngine(Config{Tracer: tr})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer e.Close()
	cs := figure5(t, e, 30_000, 10)
	if _, err := cs.One(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	byName := map[string][]metrics.Event{}
	for _, ev := range events {
		byName[ev.Name] = append(byName[ev.Name], ev)
	}
	for _, want := range []string{"flush", "transfer", "demarshal"} {
		if len(byName[want]) == 0 {
			t.Fatalf("no %q spans in trace (names: %v)", want, keysOf(byName))
		}
	}
	// Every transfer span's trace ID also appears on a flush span: the
	// sender and carrier legs of one frame correlate.
	flushIDs := map[uint64]bool{}
	for _, ev := range byName["flush"] {
		flushIDs[ev.TraceID] = true
	}
	for _, ev := range byName["transfer"] {
		if !flushIDs[ev.TraceID] {
			t.Fatalf("transfer trace ID %#x has no matching flush span", ev.TraceID)
		}
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d events under the default limit", tr.Dropped())
	}
}

func keysOf(m map[string][]metrics.Event) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
