package bench

import (
	"testing"

	"scsq/internal/cndb"
	"scsq/internal/hw"
)

// TestSelectorAblationTopologyWins asserts on the committed ablation, which
// TestAblationGolden ties to the code: the topology-aware selector never
// loses, its gain shrinks as the consumer's co-processor binds, and for two
// producers the two placements are Figure 8's sequential and balanced
// selections at 100 kB double buffering, reading figure8.csv's values.
func TestSelectorAblationTopologyWins(t *testing.T) {
	pts := goldenPoints(t, "ablation")
	prevGain := 0.0
	for _, k := range []int{2, 3, 4} {
		naive, topo := value(t, pts, k, "naive"), value(t, pts, k, "topology")
		if topo.Value < naive.Value {
			t.Errorf("k=%d: topology-aware (%v) lost to naive (%v)", k, topo, naive)
		}
		gain := value(t, pts, k, "gain").Value
		if k > 2 && gain >= prevGain {
			t.Errorf("k=%d: gain %.1f%% should be below k=%d's %.1f%%", k, gain, k-1, prevGain)
		}
		prevGain = gain
	}
	if gain := value(t, pts, 2, "gain").Value; gain < 25 {
		t.Errorf("k=2: gain %.1f%%, want ≥ 25%% (the balanced-selection advantage)", gain)
	}
	fig8 := goldenPoints(t, "8")
	for series, fig8Series := range map[string]string{"naive": "seq/double", "topology": "bal/double"} {
		if got, want := value(t, pts, 2, series), value(t, fig8, 100_000, fig8Series); got.Value != want.Value {
			t.Errorf("k=2 %s reads %v, Figure 8's 100000 %s %v", series, got.Value, fig8Series, want.Value)
		}
	}
}

func TestSelectorAblationValidation(t *testing.T) {
	if _, err := ablation([]int{0}); err == nil {
		t.Error("zero producers should fail")
	}
	if _, err := ablation([]int{99}); err == nil {
		t.Error("more producers than the partition has nodes should fail")
	}
}

// The ablation's topology series places its producers where
// BalancedProducers(0, k) says on the LOFAR partition; the two tests below
// hold that selection to what the series relies on: no producer routes
// through another chosen node, and bad inputs fail rather than place.
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
