package core

import (
	"testing"

	"scsq/internal/cndb"
	"scsq/internal/hw"
	"scsq/internal/sqep"
)

// figure5 builds the paper's intra-BG point-to-point query:
//
//	select extract(b)
//	from sp a, sp b
//	where b=sp(streamof(count(extract(a))), 'bg', 0)
//	and   a=sp(gen_array(3000000,100), 'bg', 1);
func figure5(t *testing.T, e *Engine, sizeBytes, count int) *ClientStream {
	t.Helper()
	seq1 := mustSeq(t, 1)
	q := beginQuery(t, e)
	a, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) {
		return sqep.NewGenArray(sizeBytes, count), nil
	}, hw.BlueGene, seq1)
	if err != nil {
		t.Fatalf("sp a: %v", err)
	}
	seq0 := mustSeq(t, 0)
	b, err := q.SP(func(pb *PlanBuilder) (sqep.Operator, error) {
		in, err := pb.Extract(a)
		if err != nil {
			return nil, err
		}
		return sqep.NewStreamOf(sqep.NewCount(in)), nil
	}, hw.BlueGene, seq0)
	if err != nil {
		t.Fatalf("sp b: %v", err)
	}
	cs, err := q.Extract(b)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	return cs
}

// beginQuery opens the query a test builds in.
func beginQuery(t *testing.T, e *Engine) *Query {
	t.Helper()
	q, err := e.BeginQuery()
	if err != nil {
		t.Fatalf("begin query: %v", err)
	}
	return q
}

func mustSeq(t *testing.T, ids ...int) *cndb.Sequence {
	t.Helper()
	s, err := cndb.NewSequence(ids...)
	if err != nil {
		t.Fatalf("sequence: %v", err)
	}
	return s
}

func TestPointToPointQuery(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer e.Close()

	cs := figure5(t, e, 30_000, 10)
	v, err := cs.One()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got, want := v, int64(10); got != want {
		t.Fatalf("count = %v, want %v", got, want)
	}
	if cs.Makespan() <= 0 {
		t.Fatalf("makespan = %v, want > 0", cs.Makespan())
	}
}

func TestPointToPointBandwidthPeaksNear1KB(t *testing.T) {
	// The Figure 6 shape: 1 KB buffers beat both much smaller and much
	// larger ones.
	bw := func(bufBytes int) float64 {
		e, err := NewEngine(Config{MPIBufferBytes: bufBytes})
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		defer e.Close()
		const size, count = 100_000, 10
		cs := figure5(t, e, size, count)
		if _, err := cs.One(); err != nil {
			t.Fatalf("drain(buf=%d): %v", bufBytes, err)
		}
		return float64(size*count) / cs.Makespan().Sub(0).Seconds()
	}
	at100 := bw(100)
	at1k := bw(1000)
	at1m := bw(1 << 20)
	if at1k <= at100 {
		t.Errorf("bandwidth at 1KB (%.0f B/s) should beat 100B (%.0f B/s)", at1k, at100)
	}
	if at1k <= at1m {
		t.Errorf("bandwidth at 1KB (%.0f B/s) should beat 1MB (%.0f B/s)", at1k, at1m)
	}
}

func TestInboundQuery1Shape(t *testing.T) {
	// Query 1: n generators on one back-end node, one BG merger, count
	// extracted through a second BG process to the client.
	e, err := NewEngine()
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer e.Close()

	const n, size, count = 4, 30_000, 5
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
		t.Fatalf("spv a: %v", err)
	}
	b, err := q.SP(func(pb *PlanBuilder) (sqep.Operator, error) {
		in, err := pb.Merge(a)
		if err != nil {
			return nil, err
		}
		return sqep.NewCount(in), nil
	}, hw.BlueGene, nil)
	if err != nil {
		t.Fatalf("sp b: %v", err)
	}
	c, err := q.SP(func(pb *PlanBuilder) (sqep.Operator, error) {
		return pb.Extract(b)
	}, hw.BlueGene, nil)
	if err != nil {
		t.Fatalf("sp c: %v", err)
	}
	cs, err := q.Extract(c)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	v, err := cs.One()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got, want := v, int64(n*count); got != want {
		t.Fatalf("count = %v, want %v", got, want)
	}
	// All generators were placed on back-end node 1.
	for _, sp := range a {
		if sp.Node() != 1 {
			t.Errorf("generator %s on node %d, want 1", sp.ID(), sp.Node())
		}
	}
	// b and c went to distinct BG nodes (naive next-available selection).
	if b.Node() == c.Node() {
		t.Errorf("b and c share BG node %d; CNK allows one process per node", b.Node())
	}
}
