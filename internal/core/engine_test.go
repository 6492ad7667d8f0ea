package core

import (
	"errors"
	"slices"
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
	a, err := spv(q, subs, hw.BackEnd, mustSeq(t, 1))
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
		if sp.node != 1 {
			t.Errorf("generator %s on node %d, want 1", sp.ID(), sp.node)
		}
	}
	// b and c went to distinct BG nodes (naive next-available selection).
	if b.node == c.node {
		t.Errorf("b and c share BG node %d; CNK allows one process per node", b.node)
	}
}

// TestSPVBagLargerThanFreeBGNodes: a BlueGene bag is placed whole before any
// instance is built. A bag the free nodes cannot hold fails with
// cndb.ErrNoAvailableNode and holds nothing — no lease under its owner, no
// process registered, every node it did get released once — while the
// query holding the other nodes keeps them. A bag that fits lands on the
// nodes the serial SP loop picks, in the same order.
func TestSPVBagLargerThanFreeBGNodes(t *testing.T) {
	iota1 := func(*PlanBuilder) (sqep.Operator, error) { return sqep.NewIota(1, 1), nil }
	bag := func(n int) []Subquery {
		subs := make([]Subquery, n)
		for i := range subs {
			subs[i] = iota1
		}
		return subs
	}
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bg := e.coords[hw.BlueGene]
	size := e.env.ClusterSize(hw.BlueGene)
	const free = 2
	holder := beginQuery(t, e)
	if _, err := spv(holder, bag(size-free), hw.BlueGene, nil); err != nil {
		t.Fatalf("holder bag: %v", err)
	}
	q := beginQuery(t, e)
	if _, err := spv(q, bag(free+1), hw.BlueGene, nil); !errors.Is(err, cndb.ErrNoAvailableNode) {
		t.Fatalf("bag of %d over %d free nodes = %v, want ErrNoAvailableNode", free+1, free, err)
	}
	if n := bg.DB().LeaseCount(q.ID()); n != 0 {
		t.Errorf("failed bag left %d leases", n)
	}
	if n := q.SPCount(); n != 0 {
		t.Errorf("failed bag holds %d processes", n)
	}
	if n := spCount(e); n != size-free {
		t.Errorf("%d processes live on the engine, want the holder's %d", n, size-free)
	}
	if n := bg.DB().LeaseCount(holder.ID()); n != size-free {
		t.Errorf("holder keeps %d leases, want %d", n, size-free)
	}
	allocated := 0
	for id := 0; id < size; id++ {
		allocated += bg.DB().NodeStates()[id].RPs
	}
	if allocated != size-free {
		t.Errorf("%d BlueGene nodes allocated, want %d", allocated, size-free)
	}

	// A fitting bag along psetrr() against the serial SP loop on a fresh
	// engine each.
	nodes := func(place func(q *Query, seq *cndb.Sequence) []*SP) []int {
		e, err := NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		seq, err := cndb.PsetRR(e.env)
		if err != nil {
			t.Fatal(err)
		}
		var ids []int
		for _, sp := range place(beginQuery(t, e), seq) {
			ids = append(ids, sp.node)
		}
		return ids
	}
	spv := nodes(func(q *Query, seq *cndb.Sequence) []*SP {
		sps, err := spv(q, bag(5), hw.BlueGene, seq)
		if err != nil {
			t.Fatal(err)
		}
		return sps
	})
	serial := nodes(func(q *Query, seq *cndb.Sequence) []*SP {
		var sps []*SP
		for _, sub := range bag(5) {
			sp, err := q.SP(sub, hw.BlueGene, seq)
			if err != nil {
				t.Fatal(err)
			}
			sps = append(sps, sp)
		}
		return sps
	})
	if !slices.Equal(spv, serial) || !slices.Equal(spv, []int{0, 8, 16, 24, 1}) {
		t.Errorf("spv placed %v, serial SP loop %v, want both [0 8 16 24 1]", spv, serial)
	}
}

// spv places subs as one bag of q: instance i builds subs[i].
func spv(q *Query, subs []Subquery, c hw.ClusterName, seq *cndb.Sequence) ([]*SP, error) {
	return q.SPV(len(subs), func(i int, b *PlanBuilder) (sqep.Operator, error) { return subs[i](b) }, c, seq)
}

// Extract returns the client-side stream of process p's output (the
// top-level extract(p) of q).
func (q *Query) Extract(p *SP) (*ClientStream, error) {
	return q.ClientPlan(func(b *PlanBuilder) (sqep.Operator, error) {
		return b.Extract(p)
	})
}

// MergeExtract returns the client-side merged stream of the given processes
// (a top-level merge(...) of q).
func (q *Query) MergeExtract(ps []*SP) (*ClientStream, error) {
	if len(ps) == 0 {
		return nil, errors.New("core: extract of empty process bag")
	}
	return q.ClientPlan(func(b *PlanBuilder) (sqep.Operator, error) {
		return b.Merge(ps)
	})
}

// spCount counts the stream processes of every query on e.
func spCount(e *Engine) (n int) {
	e.eachSP(func(*queryCtx, *SP) { n++ })
	return n
}
