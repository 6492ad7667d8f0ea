package sched

import (
	"errors"
	"testing"

	"scsq/internal/chaos"
	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/scsql"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// gateOp is a source operator that blocks in Next until its channel is
// closed, then ends its stream. It pins a session in Running for exactly as
// long as the test wants, making queueing scenarios deterministic: the gated
// hog cannot complete before the test releases it. A cancel has to reach it
// through the query's cancel signal: a source has no inbox to poison, so a
// gate that waited on its channel alone would hold the cancelled session's
// Drain until release.
//
// It waits outside the engine's kernel (vtime.Wait), so other sessions'
// processes keep their turns meanwhile.
type gateOp struct {
	ch     <-chan struct{}
	cancel sqep.CancelSignal
	agent  *vtime.Agent
	fired  bool
}

func (g *gateOp) Open(ctx *sqep.Ctx) error {
	g.cancel, g.agent = ctx.Cancel, ctx.Agent
	return nil
}

func (g *gateOp) Next() (sqep.Element, bool, error) {
	if g.fired {
		return sqep.Element{}, false, nil
	}
	g.fired = true
	vtime.Wait(g.agent, vtime.Tick, g.ch, g.cancel.Done())
	select {
	case <-g.cancel.Done():
		return sqep.Element{}, false, g.cancel.Cause()
	default:
		return sqep.Element{}, false, nil
	}
}

func (g *gateOp) Close() error { return nil }

// gatedEngine is tinyEngine (2-node BG partition) plus a 'gate' source whose
// streams block until the returned release function is called. A Figure5-
// shaped query over the gate occupies both BG nodes for the duration.
func gatedEngine(t *testing.T, opts ...core.Option) (*core.Engine, func()) {
	t.Helper()
	ch := make(chan struct{})
	released := false
	src := func(*sqep.Ctx) sqep.Operator { return &gateOp{ch: ch} }
	e := tinyEngine(t, append([]core.Option{core.Config{Sources: map[string]sqep.SourceFunc{"gate": src}}}, opts...)...)
	return e, func() {
		if !released {
			released = true
			close(ch)
		}
	}
}

const gateHogSrc = `
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(receiver('gate'), 'bg', 1);`

// TestDeadNodeAdmissionFailsAtOnce: on an otherwise idle system a session
// that asks for a dead node cannot be placed, and nothing brings the node
// back, so admission fails it at once, counted as rejected.
func TestDeadNodeAdmissionFailsAtOnce(t *testing.T) {
	inj := chaos.New(1)
	e := tinyEngine(t, core.Config{Chaos: inj})
	s := New(e, nil)
	defer s.Close()

	// Figure 5 demands nodes 0 and 1.
	inj.KillNode(hw.BlueGene, 1)
	q, err := s.Submit(scsql.Figure5Query(30_000, 2))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err = q.Wait(); !errors.Is(err, ErrUnsatisfiable) || !errors.Is(err, ErrUnsatisfiablePlan) {
		t.Fatalf("err = %v, want the ErrUnsatisfiable chain", err)
	}
	if st := q.State(); st != Failed {
		t.Fatalf("state = %v, want failed", st)
	}
	if got := e.MetricsSnapshot().Counters["sched.rejected"]; got != 1 {
		t.Fatalf("sched.rejected = %d, want 1", got)
	}
}

func TestPermanentUnsatisfiableIsNotRetried(t *testing.T) {
	e := newTestEngine(t)
	s := New(e, nil)
	defer s.Close()

	// Two exclusive placements on the same BG node: exceeds the topology.
	src := `
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(gen_array(30000,2), 'bg', 0);`
	q, err := s.Submit(src)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	_, err = q.Wait()
	if !errors.Is(err, ErrUnsatisfiable) || !errors.Is(err, ErrUnsatisfiablePlan) {
		t.Fatalf("err = %v, want permanent ErrUnsatisfiable chain", err)
	}
	if st := q.State(); st != Failed {
		t.Fatalf("state = %v, want failed", st)
	}
}
