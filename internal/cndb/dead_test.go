package cndb

import (
	"errors"
	"testing"

	"scsq/internal/hw"
)

func TestMarkDeadSkippedBySequence(t *testing.T) {
	db := newDB(t, hw.BlueGene)
	db.MarkDead(1)
	if states := db.NodeStates(); !states[1].Dead || states[2].Dead {
		t.Fatalf("dead bookkeeping: node 1 dead=%v, node 2 dead=%v", states[1].Dead, states[2].Dead)
	}

	seq, err := NewSequence(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.SelectFor("q1", seq)
	if err != nil || got != 2 {
		t.Fatalf("Select = %d, %v; want 2 (sequence must skip the dead node)", got, err)
	}
}

func TestMarkDeadExhaustsSequence(t *testing.T) {
	db := newDB(t, hw.BlueGene)
	db.MarkDead(1)
	db.MarkDead(2)
	seq, err := NewSequence(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SelectFor("q1", seq); !errors.Is(err, ErrNoAvailableNode) {
		t.Fatalf("Select over all-dead sequence = %v, want ErrNoAvailableNode", err)
	}
}

func TestMarkDeadSkippedByNaiveSelection(t *testing.T) {
	// Exclusive cluster: naive selection walks free nodes and must never
	// hand out a dead one.
	db := newDB(t, hw.BlueGene)
	db.MarkDead(0)
	seen := make(map[int]bool)
	for {
		n, err := db.SelectFor("q1", nil)
		if err != nil {
			break // exhausted the cluster
		}
		if n == 0 {
			t.Fatal("naive selection allocated the dead node")
		}
		if seen[n] {
			t.Fatalf("node %d allocated twice", n)
		}
		seen[n] = true
	}
	if len(seen) != db.Size()-1 {
		t.Fatalf("allocated %d nodes, want %d (all but the dead one)", len(seen), db.Size()-1)
	}
}

func TestMarkDeadSkippedByNaiveSelectionShared(t *testing.T) {
	// Shared cluster: naive round-robin cycles the node list and must not
	// spin forever when some nodes are dead — and must never pick one.
	db := newDB(t, hw.FrontEnd)
	db.MarkDead(0)
	for i := 0; i < 3*db.Size(); i++ {
		n, err := db.SelectFor("q1", nil)
		if err != nil {
			t.Fatalf("shared selection failed with live nodes remaining: %v", err)
		}
		if n == 0 {
			t.Fatal("shared round-robin allocated the dead node")
		}
	}
}

func TestMarkDeadAllSharedNodesErrors(t *testing.T) {
	db := newDB(t, hw.FrontEnd)
	for n := 0; n < db.Size(); n++ {
		db.MarkDead(n)
	}
	if _, err := db.SelectFor("q1", nil); !errors.Is(err, ErrNoAvailableNode) {
		t.Fatalf("Select with every node dead = %v, want ErrNoAvailableNode", err)
	}
}

// TestResetKeepsDeadNodesDead: Reset frees every lease but not a dead
// node. The chaos injector, the only source of a death, never revives one,
// so a node the CNDB revived would take placements that every dial fails.
func TestResetKeepsDeadNodesDead(t *testing.T) {
	db := newDB(t, hw.BlueGene)
	db.MarkDead(1)
	db.Reset()
	if !db.NodeStates()[1].Dead {
		t.Fatal("Reset revived dead node 1")
	}
	seq, err := NewSequence(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := db.SelectFor("q1", seq); !errors.Is(err, ErrNoAvailableNode) {
		t.Fatalf("Select of the dead node after reset = %d, %v; want ErrNoAvailableNode", got, err)
	}
	if got, err := db.SelectFor("q1", nil); err != nil || got == 1 {
		t.Fatalf("naive Select after reset = %d, %v; want a live node", got, err)
	}
}

func TestMarkDeadOutOfRangeIsNoop(t *testing.T) {
	db := newDB(t, hw.BlueGene)
	db.MarkDead(-1)
	db.MarkDead(db.Size())
	// AppendState reports every id the dead set holds, in range or not.
	loads, _ := db.AppendState(nil, nil)
	for _, l := range loads {
		if l.Dead {
			t.Fatalf("out-of-range MarkDead marked node %d dead", l.Node)
		}
	}
}
