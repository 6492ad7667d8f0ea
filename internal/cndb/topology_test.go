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

// TestBalancedProducersRoutesAreDisjoint: k producers are k distinct nodes
// other than the consumer's, up to a partition saturated but for the
// consumer (k = 31, where the selector falls back rather than failing), and
// while every producer can be one of the consumer's five distinct direct
// neighbors (±z is one node on the 4x4x2 torus), no producer's route to the
// consumer crosses another chosen node.
func TestBalancedProducersRoutesAreDisjoint(t *testing.T) {
	env := testEnv(t)
	sel := NewTopologySelector(env)
	for _, k := range []int{2, 3, 4, 5, 6, 7, 8, 31} {
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
		if k > 5 {
			continue
		}
		for _, id := range ids {
			mids, err := env.Torus.Intermediates(id, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range mids {
				if chosen[m] {
					t.Errorf("k=%d: producer %d routes through chosen node %d", k, id, m)
				}
			}
		}
	}
}

func TestBalancedProducersErrors(t *testing.T) {
	env := testEnv(t)
	sel := NewTopologySelector(env)
	for _, c := range []struct {
		consumer, k int
		why         string
	}{
		{99, 1, "out-of-range consumer"},
		{-1, 2, "negative consumer"},
		{0, -1, "negative k"},
		{0, 0, "zero producers"},
		{0, 32, "k beyond partition size"},
		{0, 99, "k far beyond partition size"},
	} {
		if _, err := sel.BalancedProducers(c.consumer, c.k); err == nil {
			t.Errorf("%s (consumer %d, k %d) should fail", c.why, c.consumer, c.k)
		}
	}
}
