package cndb

import (
	"errors"
	"testing"

	"scsq/internal/hw"
)

func TestMarkDeadSkippedBySequence(t *testing.T) {
	db := newDB(t, hw.BlueGene)
	db.MarkDead(1)
	if !db.Dead(1) || db.DeadCount() != 1 {
		t.Fatalf("dead bookkeeping: Dead(1)=%v count=%d", db.Dead(1), db.DeadCount())
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

func TestResetRevivesDeadNodes(t *testing.T) {
	db := newDB(t, hw.BlueGene)
	db.MarkDead(1)
	db.Reset()
	if db.Dead(1) || db.DeadCount() != 0 {
		t.Fatal("Reset must revive dead nodes (a fresh experiment reuses the cluster)")
	}
	seq, err := NewSequence(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := db.SelectFor("q1", seq); err != nil || got != 1 {
		t.Fatalf("Select after reset = %d, %v; want 1", got, err)
	}
}

func TestMarkDeadOutOfRangeIsNoop(t *testing.T) {
	db := newDB(t, hw.BlueGene)
	db.MarkDead(-1)
	db.MarkDead(db.Size())
	if db.DeadCount() != 0 {
		t.Fatalf("out-of-range MarkDead recorded %d deaths", db.DeadCount())
	}
}
