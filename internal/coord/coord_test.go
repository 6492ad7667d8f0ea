package coord

import (
	"testing"
	"time"

	"scsq/internal/cndb"
	"scsq/internal/hw"
	"scsq/internal/rp"
	"scsq/internal/sqep"
)

func testEnv(t *testing.T) *hw.Env {
	t.Helper()
	env, err := hw.NewLOFAR()
	if err != nil {
		t.Fatalf("env: %v", err)
	}
	return env
}

func newCoord(t *testing.T, env *hw.Env, c hw.ClusterName) *Coordinator {
	t.Helper()
	cc, err := New(env, c)
	if err != nil {
		t.Fatalf("coord %q: %v", c, err)
	}
	return cc
}

func TestNewValidation(t *testing.T) {
	if _, err := New(testEnv(t), "zz"); err == nil {
		t.Error("unknown cluster should fail")
	}
}

func TestDirectPlacement(t *testing.T) {
	cc := newCoord(t, testEnv(t), hw.BackEnd)
	node, err := cc.PlaceFor("q1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if node != 0 {
		t.Errorf("first placement = %d, want 0", node)
	}
	seq, err := cndb.NewSequence(3)
	if err != nil {
		t.Fatal(err)
	}
	node, err = cc.PlaceFor("q1", seq)
	if err != nil {
		t.Fatal(err)
	}
	if node != 3 {
		t.Errorf("sequence placement = %d, want 3", node)
	}
	cc.ReleaseFor("q1", 3)
	if got := cc.DB().AllocatedCount(3); got != 0 {
		t.Errorf("after release, count = %d", got)
	}
}

func TestRPRegistry(t *testing.T) {
	env := testEnv(t)
	cc := newCoord(t, env, hw.BackEnd)
	node, err := env.Node(hw.BackEnd, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sqep.Ctx{CPU: node.CPU, Cost: env.Cost}
	p := rp.New("rp-1", hw.BackEnd, 0, ctx, sqep.NewIota(1, 1))
	cc.Register(p)
	if got := len(cc.RPs()); got != 1 {
		t.Errorf("rp count = %d, want 1", got)
	}
	cc.Unregister("rp-1")
	if got := len(cc.RPs()); got != 0 {
		t.Errorf("after unregister, rp count = %d", got)
	}
}

// TestBGPlacementViaPolling keeps the paper's control path as benchmark/
// times it: a BlueGene placement registered with feCC is answered by bgCC.
func TestBGPlacementViaPolling(t *testing.T) {
	env := testEnv(t)
	feCC := newCoord(t, env, hw.FrontEnd)
	bgCC := newCoord(t, env, hw.BlueGene)
	poller, err := NewBGPoller(feCC, bgCC, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer poller.Shutdown()

	reply, err := feCC.SubmitBGPlacementFor("q1", nil)
	if err != nil {
		t.Fatal(err)
	}
	res := <-reply
	if res.Err != nil {
		t.Fatalf("placement error: %v", res.Err)
	}
	if res.Node != 0 {
		t.Errorf("placed on %d, want 0 (naive next-available)", res.Node)
	}

	// With an allocation sequence.
	seq, err := cndb.NewSequence(5)
	if err != nil {
		t.Fatal(err)
	}
	reply, err = feCC.SubmitBGPlacementFor("q1", seq)
	if err != nil {
		t.Fatal(err)
	}
	res = <-reply
	if res.Err != nil || res.Node != 5 {
		t.Fatalf("sequence placement = %+v, want node 5", res)
	}
}

func TestSubmitBGPlacementOnlyOnFrontEnd(t *testing.T) {
	env := testEnv(t)
	beCC := newCoord(t, env, hw.BackEnd)
	if _, err := beCC.SubmitBGPlacementFor("q1", nil); err == nil {
		t.Error("registering BG placements with a non-front-end coordinator should fail")
	}
}

func TestPollerValidation(t *testing.T) {
	env := testEnv(t)
	feCC := newCoord(t, env, hw.FrontEnd)
	beCC := newCoord(t, env, hw.BackEnd)
	if _, err := NewBGPoller(beCC, feCC, time.Millisecond); err == nil {
		t.Error("poller with wrong cluster roles should fail")
	}
}
