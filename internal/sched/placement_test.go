package sched

import (
	"os"
	"strings"
	"testing"

	"scsq/internal/chaos"
	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/place"
	"scsq/internal/scsql"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// A pinned tenant occupying pset 0 forces the planner to steer the next
// tenant's naive BlueGene placements into a pset of their own: each tenant
// gets a private I/O-node forwarder instead of contending for one.
func TestPlannerSpreadsConcurrentTenantsAcrossPsets(t *testing.T) {
	ch := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(ch)
		}
	}
	defer release()
	src := func(*sqep.Ctx) sqep.Operator { return &gateOp{ch: ch} }
	e := newTestEngine(t, core.Config{Sources: map[string]sqep.SourceFunc{"gate": src}}) // default 32-node BG, psets of 8

	s := New(e, nil, Config{Placement: &place.Config{}})
	defer s.Close()

	// The hog pins BG nodes 0 and 1 (pset 0) until released.
	hog, err := s.Submit(gateHogSrc)
	if err != nil {
		t.Fatalf("submit hog: %v", err)
	}
	q1, err := scsql.InboundQuery(1, 2, 30_000, 3)
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	q, err := s.Submit(q1)
	if err != nil {
		t.Fatalf("submit tenant: %v", err)
	}
	if _, err := q.Wait(); err != nil {
		t.Fatalf("tenant failed: %v", err)
	}

	psetSize := e.Env().PsetSize()
	var bgChosen []int
	for _, d := range s.Planner().Decisions() {
		if d.Owner != q.ID() || d.Cluster != string(hw.BlueGene) {
			continue
		}
		if d.Fallback {
			t.Fatalf("unexpected fallback decision: %+v", d)
		}
		bgChosen = append(bgChosen, d.Chosen...)
	}
	if len(bgChosen) == 0 {
		t.Fatalf("no BlueGene planner decisions recorded for %s", q.ID())
	}
	for _, n := range bgChosen {
		if n/psetSize == 0 {
			t.Fatalf("tenant placed into the hog's pset: chosen %v", bgChosen)
		}
	}

	// The decisions are queryable: sys_placements is registered and carries
	// one row per retained decision.
	tab, ok := e.SystemCatalog().Lookup("sys_placements")
	if !ok {
		t.Fatal("sys_placements not registered with a planner attached")
	}
	rows, err := tab.Snap("")
	if err != nil {
		t.Fatalf("sys_placements snap: %v", err)
	}
	if len(rows) != len(s.Planner().Decisions()) {
		t.Fatalf("sys_placements rows = %d, decisions = %d", len(rows), len(s.Planner().Decisions()))
	}

	release()
	if _, err := hog.Wait(); err != nil {
		t.Fatalf("hog perturbed by planned tenant: %v", err)
	}
}

// Removing the planner restores the historic placement path bit for bit: a
// planner-attached-then-detached engine reproduces exactly the schedules of
// a never-attached one. (Attaching a scheduler without the option clears
// any predecessor's planner.)
func TestPlannerRemovalRestoresBitIdenticalSchedules(t *testing.T) {
	e := newTestEngine(t)
	src, err := scsql.InboundQuery(1, 2, 60_000, 5)
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	// Sessions are run serially: concurrent batches interleave admission in
	// real time, so bit-identity is only promised for serialized schedules
	// (the same contract the existing replay tests pin).
	run := func(opts ...Option) []vtime.Time {
		s := New(e, nil, opts...)
		defer s.Close()
		const k = 2
		out := make([]vtime.Time, 0, k)
		for i := 0; i < k; i++ {
			q, err := s.Submit(src)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			if _, err := q.Wait(); err != nil {
				t.Fatalf("tenant: %v", err)
			}
			out = append(out, q.Makespan())
		}
		s.Close()
		if err := e.Reset(); err != nil {
			t.Fatalf("reset: %v", err)
		}
		return out
	}

	base := run()
	_ = run(Config{Placement: &place.Config{}})
	again := run()

	for i := range base {
		if base[i] != again[i] {
			t.Fatalf("planner-off schedules drifted after attach/detach: %v vs %v", base, again)
		}
	}
}

// TestSysPlacementsSchemaGolden is the drift guard for the sys_placements
// contract: the live schema, the golden literal here, and DESIGN.md §15 must
// move together.
func TestSysPlacementsSchemaGolden(t *testing.T) {
	const golden = "(id int, query string, cluster string, objective string, batch int, chosen string, score_e6 int, considered int, fallback int)"
	if got := SysPlacementsSchema.String(); got != golden {
		t.Fatalf("sys_placements schema drifted:\n  live:   %s\n  golden: %s", got, golden)
	}
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), "sys_placements "+golden) {
		t.Fatal("DESIGN.md does not document sys_placements with the live schema — update §15")
	}
}

// Planner-less schedulers must not register sys_placements (the scsql
// golden-five catalog guard depends on it).
func TestNoPlannerNoSysPlacements(t *testing.T) {
	e := tinyEngine(t)
	s := New(e, nil)
	defer s.Close()
	if s.Planner() != nil {
		t.Fatal("planner installed without WithPlacementPlanner")
	}
	if _, ok := e.SystemCatalog().Lookup("sys_placements"); ok {
		t.Fatal("sys_placements registered without a planner")
	}
}

// A session parked on a transiently dead cluster must admit when capacity
// returns, whether or not the planner is attached: each retry re-probes its
// rotating allocation sequence from a stable start offset, and the planner's
// all-dead fallback keeps the retry classification transient.
func TestParkedRetryWithRotatingSequenceAdmits(t *testing.T) {
	const src = `
select extract(c)
from bag of sp a, sp c
where c=sp(count(merge(a)), 'bg', urr('bg'))
and   a=spv((select gen_array(10,2) from integer i where i in iota(1,2)), 'be', urr('be'));`
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"greedy", nil},
		{"planner", []Option{Config{Placement: &place.Config{}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := chaos.New(1)
			e := tinyEngine(t, core.Config{Chaos: inj})
			opts := append([]Option{Config{AdmissionRetry: AdmissionRetryPolicy{
				MaxRetries: 3, Base: vtime.Millisecond, Max: 8 * vtime.Millisecond}}}, tc.opts...)
			s := New(e, nil, opts...)
			defer s.Close()

			inj.KillNode(hw.BlueGene, 0)
			inj.KillNode(hw.BlueGene, 1)
			q, err := s.Submit(src)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			if st := q.State(); st != Queued {
				t.Fatalf("state = %v, want queued (parked for retry)", st)
			}
			if err := e.ReviveNode(hw.BlueGene, 1); err != nil {
				t.Fatalf("revive: %v", err)
			}
			s.ObserveVTime(vtime.Time(vtime.Millisecond))
			els, err := q.Wait()
			if err != nil {
				t.Fatalf("retried session failed: %v", err)
			}
			if got := lastValue(t, els); got != int64(4) {
				t.Fatalf("count = %v, want 4", got)
			}
		})
	}
}
