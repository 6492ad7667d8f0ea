package core

import (
	"errors"
	"testing"

	"scsq/internal/carrier"
	"scsq/internal/chaos"
	"scsq/internal/cndb"
	"scsq/internal/hw"
	"scsq/internal/rp"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// mergeUnderChaos runs the paper's Query 4/5 shape — n BG generators merged
// by one BG counter, extracted to the client — on an engine with the given
// injector and nothing else, and reports the drained count and the error.
func mergeUnderChaos(t *testing.T, inj *chaos.Injector, nGens, size, count int, genSeq []int) (any, error) {
	t.Helper()
	e, err := NewEngine(Config{Chaos: inj})
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
	a, err := spv(q, subs, hw.BlueGene, mustSeq(t, genSeq...))
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
	if n := e.LeaseCount(q.ID()); n != 0 {
		t.Errorf("%d leases left after the drain", n)
	}
	return v, err
}

// TestKillNodeMidMergeFailsTheQuery: a seeded crash schedule kills BG node 1
// after its second outbound frame, mid-stream of a three-way merge. Nothing
// re-places the dead generator: its exit poisons the merger's inbox, and the
// typed failure reaches the drain instead of a hang or a short count.
func TestKillNodeMidMergeFailsTheQuery(t *testing.T) {
	inj := chaos.New(42, chaos.CrashAfterSends(hw.BlueGene, 1, 2))
	v, err := mergeUnderChaos(t, inj, 3, 30_000, 6, []int{1, 2, 3})
	if err == nil {
		t.Fatalf("drain returned %v without error although a generator's node died", v)
	}
	if !errors.Is(err, rp.ErrUpstreamDown) && !errors.Is(err, carrier.ErrNodeDown) {
		t.Fatalf("error lost its type through propagation: %v", err)
	}
}

// TestMergerCrashIsUnrecoverable crashes the node hosting the merge RP. The
// client observes a typed upstream-down error instead of a silent hang or a
// truncated "result".
func TestMergerCrashIsUnrecoverable(t *testing.T) {
	inj := chaos.New(7, chaos.CrashAtVTime(hw.BlueGene, 0, vtime.Time(1)))
	v, err := mergeUnderChaos(t, inj, 2, 30_000, 4, []int{1, 2, 3})
	if err == nil {
		t.Fatalf("drain returned %v without error although the merger's node died", v)
	}
	if !errors.Is(err, rp.ErrUpstreamDown) && !errors.Is(err, carrier.ErrNodeDown) {
		t.Fatalf("error lost its type through propagation: %v", err)
	}
}

// TestChaosInboundCount: a seeded injector's verdicts land on the charging
// link, so a Query-1-style run of 3 × 12 arrays whose frames are delayed
// counts every one of them.
func TestChaosInboundCount(t *testing.T) {
	const n, size, count = 3, 20_000, 12
	t.Run("delay", func(t *testing.T) {
		e, err := NewEngine(Config{Chaos: chaos.New(5, chaos.DelayRate(0.3, 200*vtime.Microsecond))})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if got := runInboundCount(t, e, n, size, count); got != n*count {
			t.Fatalf("count = %d, want %d", got, n*count)
		}
	})
}

// TestResetKeepsKilledNodeDead: after a node kill and a Reset the node
// database and the injector agree that the node is dead. A statement that
// names the node, sp(gen_array(1000,3), 'bg', 1), fails at placement rather
// than at a dial inside Extract, and the same statement without a node id
// runs on a live node.
func TestResetKeepsKilledNodeDead(t *testing.T) {
	e, err := NewEngine(Config{Chaos: chaos.New(1)})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer e.Close()
	e.inj.KillNode(hw.BlueGene, 1)
	if err := e.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	gen := func(*PlanBuilder) (sqep.Operator, error) { return sqep.NewGenArray(1000, 3), nil }

	q := beginQuery(t, e)
	if _, err := q.SP(gen, hw.BlueGene, mustSeq(t, 1)); !errors.Is(err, cndb.ErrNoAvailableNode) {
		t.Fatalf("sp on the killed node: %v, want %v", err, cndb.ErrNoAvailableNode)
	}
	q.Retire()

	q = beginQuery(t, e)
	a, err := q.SP(gen, hw.BlueGene, nil)
	if err != nil {
		t.Fatalf("sp without a node id: %v", err)
	}
	if a.node == 1 {
		t.Fatal("naive placement chose the killed node")
	}
	cs, err := q.Extract(a)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	if els, err := cs.Drain(); err != nil || len(els) != 3 {
		t.Fatalf("drain = %d elements, %v; want 3", len(els), err)
	}
}

// TestNodeKillFailsOnlyItsResidents: a node death marks the node dead, counts
// the kill, and fails with the death's cause the processes the engine placed
// on it, from its own table of them; a process on another node runs on.
func TestNodeKillFailsOnlyItsResidents(t *testing.T) {
	inj := chaos.New(1)
	e, err := NewEngine(Config{Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := beginQuery(t, e)
	defer q.Retire()
	victim, bystander := genSP(t, q, 3, 1000, 1), genSP(t, q, 4, 1000, 1)
	inj.KillNode(hw.BlueGene, 3)
	if err := victim.rp.Wait(); !errors.Is(err, carrier.ErrNodeDown) {
		t.Fatalf("victim error = %v, want the node death", err)
	}
	if !e.coords[hw.BlueGene].DB().NodeStates()[3].Dead {
		t.Fatal("node 3 not marked dead in the cndb")
	}
	if n := e.MetricsSnapshot().Counters["coord.node_kills.bg"]; n != 1 {
		t.Fatalf("coord.node_kills.bg = %d, want 1", n)
	}
	if err := bystander.Start(); err != nil {
		t.Fatalf("the process on node 4 was killed: %v", err)
	}
	if err := bystander.rp.Wait(); err != nil {
		t.Fatalf("bystander: %v", err)
	}
}
