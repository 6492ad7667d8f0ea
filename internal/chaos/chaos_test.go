package chaos

import (
	"errors"
	"testing"

	"scsq/internal/carrier"
	"scsq/internal/hw"
	"scsq/internal/metrics"
	"scsq/internal/vtime"
)

func ref(n int) NodeRef { return NodeRef{Cluster: hw.BlueGene, Node: n} }

func TestNilInjectorInjectsNothing(t *testing.T) {
	var inj *Injector
	if err := inj.Dial(ref(0), ref(1)); err != nil {
		t.Fatalf("nil injector dial: %v", err)
	}
	v := inj.OnSend(ref(0), ref(1), 0, 0, false)
	if v.Err != nil || v.Delay != 0 {
		t.Fatalf("nil injector verdict = %+v, want none", v)
	}
	if inj.NodeDead(hw.BlueGene, 0) {
		t.Fatal("nil injector reports dead nodes")
	}
	inj.KillNode(hw.BlueGene, 0) // must not panic
}

func TestSameSeedSameFaultSchedule(t *testing.T) {
	verdicts := func(seed int64) []Verdict {
		inj := New(seed, DelayRate(0.1, vtime.Millisecond))
		out := make([]Verdict, 0, 200)
		for seq := uint64(0); seq < 200; seq++ {
			out = append(out, inj.OnSend(ref(1), ref(2), seq, 0, false))
		}
		return out
	}
	a, b := verdicts(42), verdicts(42)
	for i := range a {
		av, bv := a[i], b[i]
		if (av.Err == nil) != (bv.Err == nil) || av.Delay != bv.Delay {
			t.Fatalf("seq %d: same seed diverged: %+v vs %+v", i, av, bv)
		}
	}
	c := verdicts(43)
	same := true
	for i := range a {
		if (a[i].Err == nil) != (c[i].Err == nil) || a[i].Delay != c[i].Delay {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 200-event fault schedules")
	}
}

func TestRateFaultsActuallyFire(t *testing.T) {
	inj := New(7, DelayRate(0.2, vtime.Millisecond))
	var delays int
	for seq := uint64(0); seq < 500; seq++ {
		v := inj.OnSend(ref(1), ref(2), seq, 0, false)
		if v.Err != nil {
			t.Fatalf("seq %d: a rate fault failed the send: %v", seq, v.Err)
		}
		if v.Delay > 0 {
			delays++
		}
	}
	if delays == 0 {
		t.Fatal("no delay over 500 sends at 20%: the rate never fired")
	}
}

func TestLastFramesExemptFromRateFaults(t *testing.T) {
	inj := New(7, DelayRate(0.9, vtime.Millisecond))
	for seq := uint64(0); seq < 100; seq++ {
		v := inj.OnSend(ref(1), ref(2), seq, 0, true)
		if v.Err != nil || v.Delay != 0 {
			t.Fatalf("seq %d: Last frame drew a rate fault: %+v", seq, v)
		}
	}
}

func TestCrashAfterSends(t *testing.T) {
	inj := New(1, CrashAfterSends(hw.BlueGene, 1, 3))
	var crashed []NodeRef
	inj.OnCrash(func(n NodeRef) { crashed = append(crashed, n) })

	for seq := uint64(0); seq < 3; seq++ {
		if v := inj.OnSend(ref(1), ref(2), seq, 0, false); v.Err != nil {
			t.Fatalf("send %d before crash point failed: %v", seq, v.Err)
		}
	}
	v := inj.OnSend(ref(1), ref(2), 3, 0, false)
	if !errors.Is(v.Err, carrier.ErrNodeDown) {
		t.Fatalf("send past crash point: err = %v, want ErrNodeDown", v.Err)
	}
	if len(crashed) != 1 || crashed[0] != ref(1) {
		t.Fatalf("crash listeners saw %v, want exactly [%v]", crashed, ref(1))
	}
	if !inj.NodeDead(hw.BlueGene, 1) {
		t.Fatal("node 1 not reported dead")
	}
	// Dials touching the dead node refuse with ErrNodeDown; sends TO it
	// fail as well (and Last frames are not exempt from death).
	if err := inj.Dial(ref(0), ref(1)); !errors.Is(err, carrier.ErrNodeDown) {
		t.Fatalf("dial to dead node: %v, want ErrNodeDown", err)
	}
	if v := inj.OnSend(ref(0), ref(1), 0, 0, true); !errors.Is(v.Err, carrier.ErrNodeDown) {
		t.Fatalf("Last frame to dead node: %v, want ErrNodeDown", v.Err)
	}
	// Killing again does not re-notify.
	inj.KillNode(hw.BlueGene, 1)
	if len(crashed) != 1 {
		t.Fatalf("re-kill re-notified listeners: %v", crashed)
	}
}

func TestCrashAtVTime(t *testing.T) {
	inj := New(1, CrashAtVTime(hw.BlueGene, 2, vtime.Time(1000)))
	if v := inj.OnSend(ref(1), ref(2), 0, 999, false); v.Err != nil {
		t.Fatalf("send before crash vtime failed: %v", v.Err)
	}
	// Node 2 is the destination here; it dies the moment traffic at or past
	// the deadline touches it.
	if v := inj.OnSend(ref(1), ref(2), 1, 1000, false); !errors.Is(v.Err, carrier.ErrNodeDown) {
		t.Fatalf("send at crash vtime: %v, want ErrNodeDown", v.Err)
	}
	if !inj.NodeDead(hw.BlueGene, 2) {
		t.Fatal("node 2 should be dead")
	}
}

// TestFaultCountersExported checks the per-fault-kind registry export: each
// injected fault kind increments its chaos.* counter, nil-safely.
func TestFaultCountersExported(t *testing.T) {
	var nilInj *Injector
	nilInj.SetMetrics(metrics.NewRegistry()) // must not panic

	reg := metrics.NewRegistry()
	inj := New(7, DelayRate(0.2, vtime.Millisecond))
	inj.SetMetrics(reg)

	var delays int64
	for seq := uint64(0); seq < 500; seq++ {
		v := inj.OnSend(ref(1), ref(2), seq, 0, false)
		if v.Delay > 0 {
			delays++
		}
	}
	inj.KillNode(hw.BlueGene, 3)
	inj.KillNode(hw.BlueGene, 3) // re-kill must not double count
	if err := inj.Dial(ref(0), ref(3)); err == nil {
		t.Fatal("dial to dead node succeeded")
	}
	if v := inj.OnSend(ref(0), ref(3), 0, 0, false); v.Err == nil {
		t.Fatal("send to dead node succeeded")
	}

	snap := reg.Snapshot()
	want := map[string]int64{
		"chaos.delay":     delays,
		"chaos.crash":     1,
		"chaos.dial_dead": 1,
		"chaos.send_dead": 1,
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Fatalf("%s = %d, want %d (snapshot %v)", name, got, v, snap.Counters)
		}
	}
	if delays == 0 {
		t.Fatal("the delay rate never fired")
	}
	if _, ok := snap.Counters["chaos.drop"]; ok {
		t.Fatal("chaos.drop is exported: the injector drops no frame, UDP does")
	}
}

// NodeDead reports whether the node has crashed.
func (i *Injector) NodeDead(cluster hw.ClusterName, node int) bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.dead[NodeRef{Cluster: cluster, Node: node}]
}
