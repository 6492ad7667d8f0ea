package cndb

import "testing"

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
