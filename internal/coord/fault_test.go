package coord

import (
	"errors"
	"testing"

	"scsq/internal/cndb"
	"scsq/internal/hw"
	"scsq/internal/rp"
	"scsq/internal/sqep"
)

func idleRP(id string, node int) *rp.RP {
	return rp.New(id, hw.BlueGene, node, sqep.Ctx{}, sqep.NewIota(1, 1), nil)
}

func TestKillNodeFailsResidentRPs(t *testing.T) {
	bg := newCoord(t, testEnv(t), hw.BlueGene)
	victim := idleRP("victim", 3)
	bystander := idleRP("bystander", 4)
	bg.Register(victim)
	bg.Register(bystander)

	cause := errors.New("power lost")
	ids := bg.KillNode(3, cause)
	if len(ids) != 1 || ids[0] != "victim" {
		t.Fatalf("killed = %v, want [victim]", ids)
	}
	if !bg.DB().Dead(3) {
		t.Fatal("node 3 not marked dead in the cndb")
	}
	if err := victim.Wait(); !errors.Is(err, cause) {
		t.Fatalf("victim error = %v, want the kill cause", err)
	}
	if err := bystander.Start(); err != nil {
		t.Fatalf("RP on a different node was killed: %v", err)
	}
	if err := bystander.Wait(); err != nil {
		t.Fatalf("bystander: %v", err)
	}
	if _, err := bg.PlaceFor("q1", mustSeqOf(t, 3)); !errors.Is(err, cndb.ErrNoAvailableNode) {
		t.Fatalf("placement on the dead node = %v, want ErrNoAvailableNode", err)
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
