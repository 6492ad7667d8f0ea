package coord

import (
	"errors"
	"testing"

	"scsq/internal/cndb"
	"scsq/internal/hw"
)

// TestKillNodeMarksTheNodeDead: a killed node takes no placement again, and
// a sequence that names it moves on to the next.
func TestKillNodeMarksTheNodeDead(t *testing.T) {
	bg := newCoord(t, testEnv(t), hw.BlueGene)
	bg.KillNode(3)
	if !bg.DB().NodeStates()[3].Dead {
		t.Fatal("node 3 not marked dead in the cndb")
	}
	if _, err := bg.PlaceFor("q1", mustSeqOf(t, 3)); !errors.Is(err, cndb.ErrNoAvailableNode) {
		t.Fatalf("placement on the dead node = %v, want ErrNoAvailableNode", err)
	}
	if node, err := bg.PlaceFor("q1", mustSeqOf(t, 3, 4)); err != nil || node != 4 {
		t.Fatalf("placement past the dead node = %d, %v; want node 4", node, err)
	}
}

func mustSeqOf(t *testing.T, ids ...int) *cndb.Sequence {
	t.Helper()
	s, err := cndb.NewSequence(ids...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
