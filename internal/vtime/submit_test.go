package vtime

import (
	"testing"

	"scsq/internal/race"
)

// TestSubmitChainRules pins the one grant routine's contract: each request
// is ready at max(0, Ready, previous End); a nil resource grants without
// contention; a non-positive service yields an empty, uncharged grant; and the
// recorder sees every placed request with its key and effective ready time.
func TestSubmitChainRules(t *testing.T) {
	cpu, nic := NewResource("cpu"), NewResource("nic")
	cpu.UseAs("other", 0, 100) // [0, 100) is taken
	var seen []Request
	cpu.SetRecorder(func(owner string, q Request) {
		if owner != "q1" {
			t.Errorf("recorded owner %q", owner)
		}
		seen = append(seen, q)
	})
	reqs := []Request{
		{Resource: cpu, Stream: "s", Seq: 1, Ready: -5, Service: 10}, // waits for [0, 100)
		{Resource: cpu, Stream: "s", Seq: 2, Ready: 0, Service: 0},   // empty, at the chain's tail
		{Resource: cpu, Stream: "s", Seq: 3, Ready: 300, Service: 20},
		{Resource: nil, Stream: "s", Seq: 4, Ready: 0, Service: 7},
		{Resource: nic, Stream: "s", Seq: 5, Ready: 0, Service: 5},
	}
	Submit("q1", reqs)
	want := [][3]Time{{0, 100, 110}, {110, 110, 110}, {300, 300, 320}, {320, 320, 327}, {327, 327, 332}}
	for i, w := range want {
		if got := [3]Time{reqs[i].Ready, reqs[i].Start, reqs[i].End}; got != w {
			t.Errorf("request %d: ready/start/end %v, want %v", i, got, w)
		}
	}
	if cpu.BusyTimeBy("q1") != 30 || nic.BusyTimeBy("q1") != 5 {
		t.Errorf("charged cpu %v nic %v, want 30 and 5", cpu.BusyTimeBy("q1"), nic.BusyTimeBy("q1"))
	}
	if len(seen) != 2 || seen[0].Seq != 1 || seen[1].Seq != 3 || seen[1].Stream != "s" || seen[1].Ready != 300 {
		t.Errorf("recorder saw %+v, want requests 1 and 3", seen)
	}
}

// TestSubmitAllocatesNothing: the door every charge passes is free of
// allocations for a chain on a warm resource.
func TestSubmitAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cpu, nic := NewResource("cpu"), NewResource("nic")
	at := Time(0)
	if n := testing.AllocsPerRun(100, func() {
		at = at.Add(100)
		reqs := [2]Request{{Resource: cpu, Stream: "s", Ready: at, Service: 50}, {Resource: nic, Stream: "s", Service: 30}}
		Submit("q1", reqs[:])
	}); n != 0 {
		t.Errorf("Submit of a two-request chain allocates %v times, want 0", n)
	}
}

// TestResetKeepsOwnerTable: Reset empties the per-owner table without
// dropping it, so a run repeated after Reset grants to the owners of the run
// before without allocating — and accounts them from zero.
func TestResetKeepsOwnerTable(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cpu := NewResource("cpu")
	owners := []string{"q1", "q2", "q3", AnonymousOwner}
	for _, o := range owners {
		cpu.UseAs(o, 0, 10)
	}
	if n := testing.AllocsPerRun(100, func() {
		cpu.Reset()
		for _, o := range owners {
			cpu.UseAs(o, 0, 10)
		}
	}); n != 0 {
		t.Errorf("a run repeated after Reset allocates %v times, want 0", n)
	}
	cpu.Reset()
	cpu.UseAs("q2", 0, 7)
	if got := cpu.OwnerBusy(); len(got) != 1 || got["q2"] != 7 {
		t.Errorf("after Reset the owner table holds %v, want only q2's 7ns", got)
	}
}
