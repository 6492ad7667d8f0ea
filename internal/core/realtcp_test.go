package core

import (
	"testing"

	"scsq/internal/hw"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// runInboundCount builds a Query-1-style inbound pipeline (n back-end
// generators merged and counted on the BlueGene) and returns the count and
// virtual makespan.
func runInboundCount(t *testing.T, e *Engine, n, size, count int) (int64, vtime.Time) {
	t.Helper()
	gen := func(*PlanBuilder) (sqep.Operator, error) {
		return sqep.NewGenArray(size, count), nil
	}
	subs := make([]Subquery, n)
	for i := range subs {
		subs[i] = gen
	}
	q := beginQuery(t, e)
	a, err := q.SPV(subs, hw.BackEnd, mustSeq(t, 1))
	if err != nil {
		t.Fatalf("spv: %v", err)
	}
	b, err := q.SP(func(pb *PlanBuilder) (sqep.Operator, error) {
		in, err := pb.Merge(a)
		if err != nil {
			return nil, err
		}
		return sqep.NewStreamOf(sqep.NewCount(in)), nil
	}, hw.BlueGene, nil)
	if err != nil {
		t.Fatalf("sp: %v", err)
	}
	cs, err := q.Extract(b)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	v, err := cs.One()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	got, ok := v.(int64)
	if !ok {
		t.Fatalf("result = %T, want int64", v)
	}
	return got, cs.Makespan()
}

// TestRealTCPMatchesInProcess verifies that carrying the streams over real
// loopback sockets changes nothing about the virtual-time results.
func TestRealTCPMatchesInProcess(t *testing.T) {
	const n, size, count = 3, 20_000, 6

	inproc, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	wantCount, wantSpan := runInboundCount(t, inproc, n, size, count)

	real, err := NewEngine(Config{RealTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer real.Close()
	gotCount, gotSpan := runInboundCount(t, real, n, size, count)

	if gotCount != wantCount {
		t.Errorf("count over sockets = %d, want %d", gotCount, wantCount)
	}
	if gotCount != int64(n*count) {
		t.Errorf("count = %d, want %d", gotCount, n*count)
	}
	// The virtual makespan is computed from the same cost model, but the
	// two modes differ in in-flight depth (per-connection credits versus a
	// shared bounded inbox), which perturbs the schedule of shared-resource
	// reservations a little — comparable to run-to-run variance on real
	// hardware. Require agreement within 10%.
	diff := float64(gotSpan - wantSpan)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.10*float64(wantSpan) {
		t.Errorf("makespan over sockets %v diverges from in-process %v by more than 10%%", gotSpan, wantSpan)
	}
}

func TestRealTCPLargeArrays(t *testing.T) {
	e, err := NewEngine(Config{RealTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// 1 MB arrays stress the frame protocol's partial reads.
	got, span := runInboundCount(t, e, 2, 1_000_000, 3)
	if got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
	if span <= 0 {
		t.Errorf("makespan = %v, want > 0", span)
	}
}
