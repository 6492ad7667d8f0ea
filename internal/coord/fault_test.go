package coord

import (
	"errors"
	"sync"
	"testing"
	"time"

	"scsq/internal/cndb"
	"scsq/internal/hw"
	"scsq/internal/rp"
	"scsq/internal/sqep"
)

func idleRP(id string, node int) *rp.RP {
	return rp.New(id, hw.BlueGene, node, sqep.Ctx{}, sqep.NewIota(1, 1))
}

func TestBGPollerConcurrentShutdown(t *testing.T) {
	env := testEnv(t)
	fe := newCoord(t, env, hw.FrontEnd)
	bg := newCoord(t, env, hw.BlueGene)
	p, err := NewBGPoller(fe, bg, 50*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	// The old check-then-close could double-close the stop channel when two
	// Shutdowns raced; this must not panic.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Shutdown()
		}()
	}
	wg.Wait()
}

func TestSubmitAfterShutdownFailsFast(t *testing.T) {
	env := testEnv(t)
	fe := newCoord(t, env, hw.FrontEnd)
	bg := newCoord(t, env, hw.BlueGene)
	p, err := NewBGPoller(fe, bg, 50*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	p.Shutdown()
	if _, err := fe.SubmitBGPlacementFor("q1", nil); !errors.Is(err, ErrBGPollerStopped) {
		t.Fatalf("submit after shutdown = %v, want ErrBGPollerStopped", err)
	}
}

func TestSubmitQueueFullFailsFast(t *testing.T) {
	// A front-end coordinator with no poller never drains its queue, so the
	// capacity is reachable and the overflow submission must be rejected
	// with the typed error rather than blocking the placing goroutine.
	fe := newCoord(t, testEnv(t), hw.FrontEnd)
	var err error
	for i := 0; i < 100_000; i++ {
		if _, err = fe.SubmitBGPlacementFor("q1", nil); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrBGQueueFull) {
		t.Fatalf("overflowing the BG queue = %v, want ErrBGQueueFull", err)
	}
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
