package bench

import (
	"testing"
)

// TestSoakDeterministicTally is the bit-determinism witness: two full soak
// runs with the same seed — chaos on, the queue filled past its cap —
// must produce the identical terminal-state tally.
func TestSoakDeterministicTally(t *testing.T) {
	cfg := soakConfig{
		Seed:     7,
		Rounds:   3,
		Victims:  8,
		QueueCap: 6,
		Chaos:    true,
	}
	r1, err := soak(cfg)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	if err := r1.check(); err != nil {
		t.Fatalf("run 1 invariants: %v", err)
	}
	r2, err := soak(cfg)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if err := r2.check(); err != nil {
		t.Fatalf("run 2 invariants: %v", err)
	}
	if r1.Tally != r2.Tally || r1.Sessions != r2.Sessions {
		t.Fatalf("same seed diverged:\n run1 sessions=%d tally=%+v\n run2 sessions=%d tally=%+v",
			r1.Sessions, r1.Tally, r2.Sessions, r2.Tally)
	}
	t.Logf("sessions=%d tally=%+v", r1.Sessions, r1.Tally)
}

// TestSoakAcceptance is the acceptance run: ≥200 sessions under the full
// chaos schedule, every failure path armed, terminating with all sessions
// terminal and zero leaked leases, goroutines, or accounting drift.
func TestSoakAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance soak skipped in -short mode")
	}
	cfg := defaultSoakConfig(42)
	res, err := soak(cfg)
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if err := res.check(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if res.Sessions < 200 {
		t.Fatalf("acceptance soak needs >=200 sessions, got %d", res.Sessions)
	}
	// The seeded schedule must exercise every terminal path and the refusal.
	if res.Tally.Done == 0 || res.Tally.Failed == 0 || res.Tally.Cancelled == 0 || res.Tally.Rejected == 0 {
		t.Fatalf("schedule did not exercise all terminal paths: %+v", res.Tally)
	}
	t.Logf("sessions=%d tally=%+v waitP50=%v waitP99=%v wall=%v",
		res.Sessions, res.Tally, res.QueueWaitP50, res.QueueWaitP99, res.Wall)
}

// TestSoakRateFaultsStayDeterministic layers seeded frame-delay faults on
// top of the crash schedule: delays stretch wall time and virtual schedules
// but drop nothing, so the terminal tally must still be a pure function of
// the seed.
func TestSoakRateFaultsStayDeterministic(t *testing.T) {
	cfg := soakConfig{
		Seed:      11,
		Rounds:    2,
		Victims:   5,
		QueueCap:  5,
		Chaos:     true,
		RateFault: true,
	}
	r1, err := soak(cfg)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := soak(cfg)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if r1.Tally != r2.Tally {
		t.Fatalf("rate-faulted soak diverged: %+v vs %+v", r1.Tally, r2.Tally)
	}
	if err := r1.check(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestSoakFeaturesOffStillTerminates runs the harness with chaos off and a
// queue that holds every victim: no session may wedge, and the only terminal states are Done and
// Cancelled.
func TestSoakFeaturesOffStillTerminates(t *testing.T) {
	cfg := soakConfig{
		Seed:    3,
		Rounds:  2,
		Victims: 5,
	}
	res, err := soak(cfg)
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if err := res.check(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if res.Tally.Failed != 0 || res.Tally.Rejected != 0 {
		t.Fatalf("features off but tally has failures or refusals: %+v", res.Tally)
	}
}
