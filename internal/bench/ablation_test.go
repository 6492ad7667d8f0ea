package bench

import (
	"testing"

	"scsq/internal/cndb"
	"scsq/internal/hw"
)

func TestSelectorAblationTopologyWins(t *testing.T) {
	pts, err := ablation([]int{2, 3}, 100_000, workload{300_000, 20})
	if err != nil {
		t.Fatalf("ablation: %v", err)
	}
	for _, k := range []int{2, 3} {
		naive, topo := value(t, pts, k, "naive"), value(t, pts, k, "topology")
		// The topology-aware selector never loses, and for two producers it
		// recovers most of the Figure 8 balanced gain.
		if topo.Value < naive.Value {
			t.Errorf("k=%d: topology-aware (%v) lost to naive (%v)", k, topo, naive)
		}
		if gain := value(t, pts, k, "gain").Value; k == 2 && gain < 25 {
			t.Errorf("k=2: gain %.1f%%, want ≥ 25%% (the balanced-selection advantage)", gain)
		}
	}
}

func TestSelectorAblationValidation(t *testing.T) {
	if _, err := ablation([]int{2}, 0, workload{300_000, 20}); err == nil {
		t.Error("zero buffer should fail")
	}
}

func TestBalancedProducersAvoidContention(t *testing.T) {
	env, err := hw.NewLOFAR()
	if err != nil {
		t.Fatal(err)
	}
	sel := cndb.NewTopologySelector(env)
	seq, err := sel.BalancedProducers(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ids := seq.IDs()
	if len(ids) != 3 {
		t.Fatalf("chose %v, want 3 nodes", ids)
	}
	chosen := map[int]bool{0: true}
	for _, id := range ids {
		chosen[id] = true
	}
	for _, id := range ids {
		mids, err := env.Torus.Intermediates(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mids {
			if chosen[m] {
				t.Errorf("producer %d routes through chosen node %d", id, m)
			}
		}
	}
}

func TestBalancedProducersValidation(t *testing.T) {
	env, err := hw.NewLOFAR()
	if err != nil {
		t.Fatal(err)
	}
	sel := cndb.NewTopologySelector(env)
	if _, err := sel.BalancedProducers(-1, 2); err == nil {
		t.Error("bad consumer should fail")
	}
	if _, err := sel.BalancedProducers(0, 0); err == nil {
		t.Error("zero producers should fail")
	}
	if _, err := sel.BalancedProducers(0, 99); err == nil {
		t.Error("too many producers should fail")
	}
	// Saturating the partition falls back rather than failing.
	seq, err := sel.BalancedProducers(0, 31)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(seq.IDs()); got != 31 {
		t.Errorf("fallback chose %d nodes, want 31", got)
	}
}
