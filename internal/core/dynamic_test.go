package core

import (
	"fmt"
	"testing"

	"scsq/internal/hw"
	"scsq/internal/sqep"
)

// dynSplitter is an operator that, when opened — i.e. at RUN time, on the
// RP's own goroutine — asks its query for a brand-new stream process,
// wires itself to it, and relays its elements. It exercises the paper's
// dynamic RP creation: "an RP can dynamically start new RPs by requesting
// them from the cluster coordinator of the cluster where the new RP is
// started."
type dynSplitter struct {
	eng     *Engine
	query   *Query // the query the splitter runs in, and grows
	cluster hw.ClusterName
	node    int
	workers int

	inner sqep.Operator
}

func (d *dynSplitter) Open(ctx *sqep.Ctx) error {
	var spawned []*SP
	for i := 0; i < d.workers; i++ {
		lo, hi := int64(i*10+1), int64(i*10+10)
		helper, err := d.query.SP(func(*PlanBuilder) (sqep.Operator, error) {
			return sqep.NewIota(lo, hi), nil
		}, hw.BackEnd, nil)
		if err != nil {
			return fmt.Errorf("dynamic spawn %d: %w", i, err)
		}
		spawned = append(spawned, helper)
	}
	var merged sqep.Operator
	var err2 error
	if d.workers == 1 {
		merged, err2 = d.eng.ConnectLive(spawned[0], d.cluster, d.node)
	} else {
		merged, err2 = d.eng.connectAs(spawned[0].qc, spawned, d.cluster, d.node, "client")
	}
	if err2 != nil {
		return err2
	}
	for _, h := range spawned {
		if err := h.Start(); err != nil {
			return err
		}
	}
	d.inner = sqep.NewCount(merged)
	return d.inner.Open(ctx)
}

func (d *dynSplitter) Next() (sqep.Element, bool, error) { return d.inner.Next() }
func (d *dynSplitter) Close() error {
	if d.inner == nil {
		return nil
	}
	return d.inner.Close()
}

func TestDynamicRPCreation(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const workers = 3
	q := beginQuery(t, e)
	parent, err := q.SP(func(pb *PlanBuilder) (sqep.Operator, error) {
		return &dynSplitter{eng: e, query: pb.Query(), cluster: pb.Cluster(), node: pb.Node(), workers: workers}, nil
	}, hw.BlueGene, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := q.Extract(parent)
	if err != nil {
		t.Fatal(err)
	}
	v, err := cs.One()
	if err != nil {
		t.Fatal(err)
	}
	// Each dynamically spawned worker emits 10 integers.
	if got, want := v, int64(workers*10); got != want {
		t.Fatalf("count = %v, want %v", got, want)
	}

	// The quiescence loop released everything.
	if leftover := len(e.allSPs()); leftover != 0 {
		t.Errorf("%d stream processes leaked after drain", leftover)
	}
}
