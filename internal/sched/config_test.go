package sched

import (
	"errors"
	"testing"

	"scsq/internal/scsql"
)

// TestZeroConfigIsTheDefault pins what each zero field of Config means: a
// 64-session admission queue, no shedding, no admission retry, greedy
// placement — the scheduler New built with no options before it took a
// Config. A negative cap, which the root's WithAdmissionQueueCap(0) sets, is
// unbounded.
func TestZeroConfigIsTheDefault(t *testing.T) {
	for _, tc := range []struct {
		cfg    Config
		reject bool // the 65th queued session is refused
	}{
		{Config{}, true},
		{Config{QueueCap: -1}, false},
	} {
		e, release := gatedEngine(t)
		s := New(e, nil, tc.cfg)
		if tc.cfg == (Config{}) {
			if s.cfg.LoadShedding || s.cfg.AdmissionRetry.MaxRetries != 0 || s.cfg.Placement != nil || s.planner != nil {
				t.Errorf("zero Config: %+v, planner %v; want no shedding, retry or planner", s.cfg, s.planner)
			}
		}
		if _, err := s.Submit(gateHogSrc); err != nil {
			t.Fatalf("submit hog: %v", err)
		}
		for i := 0; i < 64; i++ {
			if _, err := s.Submit(scsql.Figure5Query(30_000, 2)); err != nil {
				t.Fatalf("cap %d: queued session %d: %v", tc.cfg.QueueCap, i+1, err)
			}
		}
		_, err := s.Submit(scsql.Figure5Query(30_000, 2))
		if got := errors.Is(err, ErrQueueFull); got != tc.reject {
			t.Errorf("cap %d: 65th queued session: %v, want rejected %t", tc.cfg.QueueCap, err, tc.reject)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		release()
	}
}
