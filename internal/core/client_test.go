package core

import (
	"errors"
	"strings"
	"testing"

	"scsq/internal/hw"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

func TestOneRejectsMultipleElements(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := beginQuery(t, e)
	a, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) {
		return sqep.NewIota(1, 3), nil
	}, hw.BackEnd, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := q.Extract(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.One(); err == nil || !strings.Contains(err.Error(), "single result") {
		t.Errorf("One over 3 elements: err = %v", err)
	}
}

func TestValuesAndDrainIdempotent(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := beginQuery(t, e)
	a, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) {
		return sqep.NewIota(1, 2), nil
	}, hw.BackEnd, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := q.Extract(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Drain(); err != nil {
		t.Fatal(err)
	}
	vals := cs.Values()
	if len(vals) != 2 || vals[0] != int64(1) {
		t.Errorf("values = %v", vals)
	}
}

func TestMergeExtractEmptyBag(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := beginQuery(t, e)
	if _, err := q.MergeExtract(nil); err == nil {
		t.Error("empty bag should fail")
	}
}

func TestRPErrorSurfacesThroughDrain(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// A plan whose operator errors mid-stream.
	q := beginQuery(t, e)
	bad, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) {
		return sqep.NewMapFn("explode", sqep.NewIota(1, 10), func(v any) (any, vtime.Duration, error) {
			if v.(int64) == 3 {
				return nil, 0, errTest
			}
			return v, 0, nil
		}), nil
	}, hw.BackEnd, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := q.Extract(bad)
	if err != nil {
		t.Fatal(err)
	}
	_, derr := cs.Drain()
	if derr == nil || !strings.Contains(derr.Error(), "boom-test") {
		t.Errorf("drain error = %v, want the RP's failure", derr)
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "boom-test" }

func TestEngineOptionValidation(t *testing.T) {
	if _, err := NewEngine(Config{MPIBufferBytes: -1}); err == nil {
		t.Error("negative MPI buffer should fail")
	}
	if _, err := NewEngine(Config{window: -1}); err == nil {
		t.Error("negative window should fail")
	}
}

func TestEngineAccessors(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Env() == nil {
		t.Error("Env must be set")
	}
	if e.Coordinator(hw.BlueGene) == nil || e.Coordinator("zz") != nil {
		t.Error("Coordinator lookup misbehaves")
	}
	if e.FileTable() != nil {
		t.Error("default file table must be nil")
	}
	if err := e.Close(); err != nil {
		t.Error("Close must be idempotent")
	}
}

func TestResetReleasesNodesAndEdges(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := beginQuery(t, e)
	a, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) {
		return sqep.NewIota(1, 1), nil
	}, hw.BlueGene, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Extract(a); err != nil {
		t.Fatal(err)
	}
	if e.Coordinator(hw.BlueGene).DB().NodeStates()[a.node].RPs == 0 {
		t.Fatal("node should be allocated")
	}
	e.Reset()
	if e.Coordinator(hw.BlueGene).DB().NodeStates()[a.node].RPs != 0 {
		t.Error("Reset must release node allocations")
	}
	if len(e.Edges()) != 0 {
		t.Error("Reset must clear the topology")
	}
	// The engine is usable again.
	q = beginQuery(t, e)
	b, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) {
		return sqep.NewIota(1, 4), nil
	}, hw.BlueGene, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := q.Extract(b)
	if err != nil {
		t.Fatal(err)
	}
	els, err := cs.Drain()
	if err != nil || len(els) != 4 {
		t.Errorf("post-reset drain = %d elements, %v", len(els), err)
	}
}

func TestDrainAfterResetFailsFast(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := beginQuery(t, e)
	a, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) {
		return sqep.NewIota(1, 2), nil
	}, hw.BackEnd, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := q.Extract(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(); err != nil {
		t.Fatalf("reset with no active stream: %v", err)
	}
	// The stream was built before the Reset: its identity and placements
	// are gone, so it must fail fast instead of starting RPs on the reset
	// engine.
	if _, err := cs.Drain(); !errors.Is(err, ErrStaleQuery) {
		t.Errorf("drain after reset err = %v, want ErrStaleQuery", err)
	}
}

func TestDrainAfterCloseFailsFast(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	q := beginQuery(t, e)
	a, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) {
		return sqep.NewIota(1, 2), nil
	}, hw.BackEnd, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := q.Extract(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close with no active stream: %v", err)
	}
	if _, err := cs.Drain(); !errors.Is(err, ErrStaleQuery) {
		t.Errorf("drain after close err = %v, want ErrStaleQuery", err)
	}
}

// TestResetRacesDrain races Reset against a Drain starting: exactly one
// side must win. Either Reset sees the active (or about-to-complete) stream
// — ErrQueriesActive or a clean pass after it drained — or the Drain
// observes the reset and fails fast with ErrStaleQuery. Reset must never
// succeed while the Drain also proceeds on the torn-down engine.
func TestResetRacesDrain(t *testing.T) {
	for i := 0; i < 20; i++ {
		e, err := NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		q := beginQuery(t, e)
		a, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) {
			return sqep.NewIota(1, 50), nil
		}, hw.BackEnd, nil)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := q.Extract(a)
		if err != nil {
			t.Fatal(err)
		}
		drainErr := make(chan error, 1)
		go func() {
			_, err := cs.Drain()
			drainErr <- err
		}()
		resetErr := e.Reset()
		derr := <-drainErr
		switch {
		case resetErr == nil:
			// Reset won: the stream had not started (or had fully
			// finished) — a not-yet-started one must fail fast.
			if derr != nil && !errors.Is(derr, ErrStaleQuery) {
				t.Fatalf("reset won but drain err = %v, want nil or ErrStaleQuery", derr)
			}
		case errors.Is(resetErr, ErrQueriesActive):
			// Drain won: it must complete untouched.
			if derr != nil {
				t.Fatalf("drain won but failed: %v", derr)
			}
		default:
			t.Fatalf("reset err = %v", resetErr)
		}
		e.Close()
	}
}

func TestWindowFramesOptionBoundsInFlight(t *testing.T) {
	// A tiny window still completes (backpressure, not deadlock).
	e, err := NewEngine(Config{window: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cs := figure5(t, e, 50_000, 8)
	v, err := cs.One()
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(8) {
		t.Errorf("count = %v, want 8", v)
	}
}

func TestSubscribeViaBuilderOnly(t *testing.T) {
	// Wiring to an SP that already started must fail cleanly.
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := beginQuery(t, e)
	a, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) {
		return sqep.NewIota(1, 1), nil
	}, hw.BackEnd, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drain a query that consumes a; afterwards a has terminated.
	cs, err := q.Extract(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.connectAs(a.qc, []*SP{a}, hw.FrontEnd, 0, "dynamic@fe:0", nil); err == nil {
		t.Error("wiring to a started RP should fail")
	}
}

// TestElementObserverTakesTheElements pins the single-copy contract: with an
// observer installed Drain hands every element to it and keeps none, so a
// scheduler session's rows live once, in its result log.
func TestElementObserverTakesTheElements(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := beginQuery(t, e)
	a, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) {
		return sqep.NewIota(1, 3), nil
	}, hw.BackEnd, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := q.Extract(a)
	if err != nil {
		t.Fatal(err)
	}
	var seen []sqep.Element
	cs.SetElementObserver(func(el sqep.Element) { seen = append(seen, el) })
	els, err := cs.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if els != nil || len(cs.Values()) != 0 {
		t.Errorf("Drain kept %d elements (Values %d) next to the observer's copy", len(els), len(cs.Values()))
	}
	if len(seen) != 3 || seen[2].Value != int64(3) {
		t.Errorf("observer saw %v, want the three elements", seen)
	}
	if cs.Makespan() != seen[2].At {
		t.Errorf("makespan %v, want the last element's instant %v", cs.Makespan(), seen[2].At)
	}
}

// TestForgetQueryFoldsWithoutLoss runs two queries through BuildAs and
// retires the first: its edges and query-scoped metrics go, the totals they
// contributed to stay, and every resource's owners still sum to its busy time.
func TestForgetQueryFoldsWithoutLoss(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var (
		ids []string
		qs  []*Query
	)
	for i := 0; i < 2; i++ {
		q, err := e.BeginQuery()
		if err != nil {
			t.Fatal(err)
		}
		var cs *ClientStream
		if err := e.BuildAs(q, func() error {
			a, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) {
				return sqep.NewIota(1, 4), nil
			}, hw.BackEnd, nil)
			if err != nil {
				return err
			}
			cs, err = q.Extract(a)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Drain(); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, q.ID())
		qs = append(qs, q)
	}
	before := e.MetricsSnapshot()
	nic, err := e.Env().Node(hw.BackEnd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nic.NIC.OwnerBusy()[ids[0]] == 0 {
		t.Fatalf("%s charged nothing to be0.nic; the test needs an owner to fold", ids[0])
	}

	qs[0].Retire()
	qs[0].Retire() // idempotent

	for _, ed := range e.Edges() {
		if ed.Query == ids[0] {
			t.Errorf("edge of forgotten %s survives: %+v", ids[0], ed)
		}
	}
	if n := len(e.Edges()); n != 1 {
		t.Errorf("%d edges left, want %s's one", n, ids[1])
	}
	after := e.MetricsSnapshot()
	if got := after.ForQuery(ids[0]); len(got.Counters)+len(got.Gauges)+len(got.Histograms) != 0 {
		t.Errorf("metrics of forgotten %s survive: %v", ids[0], got.CounterNames())
	}
	if got := after.ForQuery(ids[1]); len(got.Counters) == 0 {
		t.Errorf("forgetting %s took %s's metrics", ids[0], ids[1])
	}
	for _, prefix := range []string{"rp.elements_out.", "rp.bytes_out.", "recv.frames."} {
		if got, want := after.SumCounters(prefix), before.SumCounters(prefix); got != want || want == 0 {
			t.Errorf("Σ %s* = %d after the fold, %d before", prefix, got, want)
		}
	}
	for _, r := range e.Env().Resources() {
		var sum vtime.Duration
		owners := r.OwnerBusy()
		for _, d := range owners {
			sum += d
		}
		if sum != r.BusyTime() {
			t.Errorf("%s: owners sum to %v, busy %v", r.Name(), sum, r.BusyTime())
		}
		if _, ok := owners[ids[0]]; ok {
			t.Errorf("%s still lists forgotten owner %s", r.Name(), ids[0])
		}
	}
	if nic.NIC.OwnerBusy()[vtime.RetiredOwner] == 0 {
		t.Error("be0.nic has no retired aggregate after the fold")
	}
}

// Values returns the drained element values.
func (s *ClientStream) Values() []any {
	out := make([]any, len(s.elements))
	for i, el := range s.elements {
		out[i] = el.Value
	}
	return out
}
