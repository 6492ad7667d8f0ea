package core

import (
	"errors"
	"strings"
	"testing"

	"scsq/internal/carrier"
	"scsq/internal/chaos"
	"scsq/internal/hw"
	"scsq/internal/rp"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// mergeUnderChaos runs the paper's Query 4/5 shape — n BG generators merged
// by one BG counter, extracted to the client — under the given injector and
// supervision budget, and reports the drained count, the first generator's
// restart tally, and its final node.
func mergeUnderChaos(t *testing.T, inj *chaos.Injector, budget, nGens, size, count int, genSeq []int) (any, error, int, int) {
	t.Helper()
	e, err := NewEngine(Config{Chaos: inj, Supervision: &budget})
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
	a, err := q.SPV(subs, hw.BlueGene, mustSeq(t, genSeq...))
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
	return v, err, e.sup.Restarts(a[0]), a[0].Node()
}

// TestKillNodeMidMergeRecovers is the acceptance scenario: a seeded crash
// schedule kills BG node 1 after its second outbound frame, mid-stream of a
// three-way merge. The supervisor re-places the dead generator on the next
// free node of its allocation sequence; the replacement replays its
// deterministic stream, the receiver's offset tracking discards the
// already-ingested prefix, and the merged count comes out exact. Three runs
// of the same seed agree bit-for-bit.
func TestKillNodeMidMergeRecovers(t *testing.T) {
	const (
		seed        = 42
		size, count = 30_000, 6
		nGens       = 3
	)
	type outcome struct {
		v        any
		err      error
		restarts int
		node     int
	}
	run := func() outcome {
		inj := chaos.New(seed, chaos.CrashAfterSends(hw.BlueGene, 1, 2))
		v, err, restarts, node := mergeUnderChaos(t, inj, 2, nGens, size, count, []int{1, 2, 3, 4, 5, 6})
		return outcome{v, err, restarts, node}
	}

	first := run()
	if first.err != nil {
		t.Fatalf("drain under chaos: %v", first.err)
	}
	if got, want := first.v, int64(nGens*count); got != want {
		t.Fatalf("merged count = %v, want %v", got, want)
	}
	if first.restarts != 1 {
		t.Fatalf("restarts = %d, want 1", first.restarts)
	}
	if first.node == 1 {
		t.Fatal("generator still reports the dead node after recovery")
	}
	for i := 0; i < 2; i++ {
		again := run()
		if again.err != nil {
			t.Fatalf("rerun %d: %v", i, again.err)
		}
		if again != first {
			t.Fatalf("rerun %d diverged: %+v vs %+v (same seed must reproduce the same outcome)", i, again, first)
		}
	}
}

// TestRestartBudgetExhaustedPropagatesTypedError kills every node of the
// generator's allocation sequence in turn. The single permitted restart
// lands on node 2, which also dies; the supervisor then poisons downstream
// instead of hanging, and the typed failure reaches Drain.
func TestRestartBudgetExhaustedPropagatesTypedError(t *testing.T) {
	inj := chaos.New(7,
		chaos.CrashAfterSends(hw.BlueGene, 1, 1),
		chaos.CrashAfterSends(hw.BlueGene, 2, 1),
	)
	_, err, restarts, _ := mergeUnderChaos(t, inj, 1, 1, 30_000, 6, []int{1, 2})
	if err == nil {
		t.Fatal("drain succeeded although every candidate node died")
	}
	if !errors.Is(err, rp.ErrUpstreamDown) && !errors.Is(err, carrier.ErrNodeDown) {
		t.Fatalf("error lost its type through propagation: %v", err)
	}
	if !strings.Contains(err.Error(), "restart budget") {
		t.Fatalf("error does not name the exhausted budget: %v", err)
	}
	if restarts != 2 {
		t.Fatalf("restarts = %d, want 2 (one permitted, one over budget)", restarts)
	}
}

// TestMergerCrashIsUnrecoverable crashes the node hosting the merge RP. An
// input-bearing RP cannot replay its consumed inputs, so the supervisor
// declares it unrecoverable and the client observes a typed upstream-down
// error instead of a silent hang or a truncated "result".
func TestMergerCrashIsUnrecoverable(t *testing.T) {
	inj := chaos.New(7, chaos.CrashAtVTime(hw.BlueGene, 0, vtime.Time(1)))
	v, err, _, _ := mergeUnderChaos(t, inj, 2, 2, 30_000, 4, []int{1, 2, 3})
	if err == nil {
		t.Fatalf("drain returned %v without error although the merger's node died", v)
	}
	if !errors.Is(err, rp.ErrUpstreamDown) && !errors.Is(err, carrier.ErrNodeDown) {
		t.Fatalf("error lost its type through propagation: %v", err)
	}
	if !strings.Contains(err.Error(), "not recoverable") {
		t.Fatalf("error does not name the unrecoverable RP: %v", err)
	}
}

// TestDialRetryAbsorbsTransientFailures injects two dial timeouts on every
// fresh (src, dst) pair; the default bounded-retry policy (three attempts)
// absorbs them and the query runs to the exact result.
func TestDialRetryAbsorbsTransientFailures(t *testing.T) {
	inj := chaos.New(3, chaos.FailFirstDials(2))
	v, err, restarts, _ := mergeUnderChaos(t, inj, 0, 2, 30_000, 5, []int{1, 2})
	if err != nil {
		t.Fatalf("drain with retried dials: %v", err)
	}
	if got, want := v, int64(2*5); got != want {
		t.Fatalf("count = %v, want %v", got, want)
	}
	if restarts != 0 {
		t.Fatalf("restarts = %d, want 0 (dial faults are transient, not crashes)", restarts)
	}
}

// TestChaosInboundCount: a seeded injector's verdicts land on the charging
// link, so a Query-1-style run of 3 × 12 arrays counts exactly the arrays
// that survive it — 33 of 36 under a 20 % drop rate, and every one when
// frames are only delayed.
func TestChaosInboundCount(t *testing.T) {
	const n, size, count = 3, 20_000, 12
	for _, tc := range []struct {
		name  string
		fault chaos.Option
		want  int64
	}{
		{"drop", chaos.DropRate(0.2), 33},
		{"delay", chaos.DelayRate(0.3, 200*vtime.Microsecond), n * count},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(Config{Chaos: chaos.New(5, tc.fault)})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if got := runInboundCount(t, e, n, size, count); got != tc.want {
				t.Fatalf("count = %d, want %d", got, tc.want)
			}
		})
	}
}
