package core

import (
	"testing"
	"time"

	"scsq/internal/hw"
	"scsq/internal/sqep"
)

// gated passes its input through once gate closes; until then Next blocks
// without reading the input.
type gated struct {
	in   sqep.Operator
	gate <-chan struct{}
}

func (g *gated) Open(ctx *sqep.Ctx) error { return g.in.Open(ctx) }
func (g *gated) Next() (sqep.Element, bool, error) {
	<-g.gate
	return g.in.Next()
}
func (g *gated) Close() error { return g.in.Close() }

// TestSysRPsShowsWhereEachProcessIsParked: sys_rps reads every process's
// state and frontier from its query's door. A producer whose consumer never
// drains is parked on credit, a consumer before its first frame on its
// inbox, and a process that ran out is done — until the gate opens and the
// query completes.
func TestSysRPsShowsWhereEachProcessIsParked(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	gate := make(chan struct{})
	open := make(chan struct{})
	close(open)
	source := func(op sqep.Operator) Subquery {
		return func(*PlanBuilder) (sqep.Operator, error) { return op, nil }
	}
	counts := func(p *SP, gate <-chan struct{}) Subquery {
		return func(b *PlanBuilder) (sqep.Operator, error) {
			in, err := b.Extract(p)
			return &gated{in: sqep.NewCount(in), gate: gate}, err
		}
	}
	// Two queries: the gated source of the second would hold the first's
	// sources to the pacing horizon.
	drained := make(chan error, 2)
	run := func(pairs ...func(sp func(int, Subquery) *SP) *SP) {
		q := beginQuery(t, e)
		sp := func(node int, sub Subquery) *SP {
			t.Helper()
			p, err := q.SP(sub, hw.BlueGene, mustSeq(t, node))
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		var out []*SP
		for _, pair := range pairs {
			out = append(out, pair(sp))
		}
		cs, err := q.MergeExtract(out)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			_, err := cs.Drain()
			drained <- err
		}()
	}
	var flood, brief, waiting *SP
	run(func(sp func(int, Subquery) *SP) *SP {
		flood = sp(1, source(sqep.NewGenArray(1000, 2000)))
		return sp(0, counts(flood, gate)) // never drains its inbox until the gate opens
	}, func(sp func(int, Subquery) *SP) *SP {
		brief = sp(5, source(sqep.NewIota(1, 3)))
		return sp(4, counts(brief, gate)) // keeps the query, and brief's record, alive
	})
	run(func(sp func(int, Subquery) *SP) *SP {
		late := sp(3, source(&gated{in: sqep.NewIota(1, 3), gate: gate}))
		waiting = sp(2, counts(late, open)) // no frame comes until the gate opens
		return waiting
	})

	tab, _ := e.SystemCatalog().Lookup("sys_rps")
	want := map[string]string{flood.ID(): "credit", waiting.ID(): "inbox", brief.ID(): "done"}
	got := map[string]string{}
	frontier := map[string]int64{}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		rows, err := tab.Snap("")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			id, _ := r.Field("id")
			state, _ := r.Field("state")
			f, _ := r.Field("frontier_ns")
			got[id.(string)], frontier[id.(string)] = state.(string), f.(int64)
		}
		if got[flood.ID()] == want[flood.ID()] && got[waiting.ID()] == want[waiting.ID()] && got[brief.ID()] == want[brief.ID()] {
			break
		}
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("%s reads %q, want %q", id, got[id], w)
		}
	}
	if frontier[flood.ID()] <= 0 || frontier[waiting.ID()] != 0 {
		t.Errorf("frontiers %v: the flood emitted, the waiting consumer did not", frontier)
	}
	close(gate)
	for range 2 {
		select {
		case err := <-drained:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("the queries did not complete once the gate opened")
		}
	}
}
