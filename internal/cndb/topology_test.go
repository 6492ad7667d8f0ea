package cndb

import (
	"testing"

	"scsq/internal/hw"
)

func TestBalancedProducersPrefersDirectNeighbors(t *testing.T) {
	env := testEnv(t)
	sel := NewTopologySelector(env)
	seq, err := sel.BalancedProducers(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range seq.IDs() {
		hops, err := env.Torus.HopCount(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if hops != 1 {
			t.Errorf("producer %d is %d hops from the consumer; two direct neighbors exist", id, hops)
		}
	}
}

func TestBalancedProducersRoutesAreDisjoint(t *testing.T) {
	env := testEnv(t)
	sel := NewTopologySelector(env)
	for k := 2; k <= 8; k++ {
		seq, err := sel.BalancedProducers(0, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		ids := seq.IDs()
		if len(ids) != k {
			t.Fatalf("k=%d: chose %d nodes", k, len(ids))
		}
		chosen := map[int]bool{0: true}
		for _, id := range ids {
			if chosen[id] {
				t.Fatalf("k=%d: node %d chosen twice", k, id)
			}
			chosen[id] = true
		}
	}
}

func TestBalancedProducersErrors(t *testing.T) {
	env := testEnv(t)
	sel := NewTopologySelector(env)
	if _, err := sel.BalancedProducers(99, 1); err == nil {
		t.Error("out-of-range consumer should fail")
	}
	if _, err := sel.BalancedProducers(0, -1); err == nil {
		t.Error("negative k should fail")
	}
	if _, err := sel.BalancedProducers(0, 32); err == nil {
		t.Error("k beyond partition size should fail")
	}
}

func TestInboundReceiversIsPsetRR(t *testing.T) {
	env := testEnv(t)
	seq, err := NewTopologySelector(env).InboundReceivers()
	if err != nil {
		t.Fatal(err)
	}
	want, err := PsetRR(env)
	if err != nil {
		t.Fatal(err)
	}
	got := seq.IDs()
	expect := want.IDs()
	for i := range expect {
		if got[i] != expect[i] {
			t.Fatalf("InboundReceivers differs from psetrr at %d: %v vs %v", i, got, expect)
		}
	}
}

func TestBackEndProducersSpill(t *testing.T) {
	env := testEnv(t)
	sel := NewTopologySelector(env)
	seq, err := sel.BackEndProducers(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 1, 2, 2, 3, 3, 0} // spills and wraps
	got := seq.IDs()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("placements = %v, want %v", got, want)
		}
	}
	if _, err := sel.BackEndProducers(-1, 2); err == nil {
		t.Error("negative count should fail")
	}
}

func TestBackEndProducersNoBackEnd(t *testing.T) {
	env, err := hw.NewLOFAR(hw.Config{BackEndNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One node still works; everything co-locates there.
	seq, err := NewTopologySelector(env).BackEndProducers(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range seq.IDs() {
		if id != 0 {
			t.Errorf("placement %d, want 0", id)
		}
	}
}
