package core

import (
	"strings"
	"testing"

	"scsq/internal/hw"
	"scsq/internal/sqep"
)

// TestEdgesRecordTopology checks that the wired process graph matches the
// query's topology — what the shell's -explain flag prints.
func TestEdgesRecordTopology(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	cs := figure5(t, e, 10_000, 2)
	if _, err := cs.One(); err != nil {
		t.Fatal(err)
	}

	edges := e.Edges()
	if len(edges) != 2 {
		t.Fatalf("edges = %d, want 2 (a->b over MPI, b->client over TCP)", len(edges))
	}
	mpi := edges[0]
	if mpi.Carrier != "mpi" || mpi.FromCluster != hw.BlueGene || mpi.FromNode != 1 ||
		mpi.ToCluster != hw.BlueGene || mpi.ToNode != 0 {
		t.Errorf("MPI edge = %+v", mpi)
	}
	if mpi.Consumer == "" || mpi.Producer == "" {
		t.Errorf("edge endpoints must be named: %+v", mpi)
	}
	tcp := edges[1]
	if tcp.Carrier != "tcp" || !strings.HasSuffix(tcp.Consumer, "/client") || tcp.ToCluster != hw.FrontEnd {
		t.Errorf("client edge = %+v", tcp)
	}

	e.Reset()
	if got := e.Edges(); len(got) != 0 {
		t.Errorf("Reset must clear edges, got %v", got)
	}
}

func TestEdgesMergeFanIn(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	gen := func(*PlanBuilder) (sqep.Operator, error) {
		return sqep.NewGenArray(5_000, 2), nil
	}
	q := beginQuery(t, e)
	a, err := q.SPV([]Subquery{gen, gen, gen}, hw.BackEnd, mustSeq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.SP(func(pb *PlanBuilder) (sqep.Operator, error) {
		in, err := pb.Merge(a)
		if err != nil {
			return nil, err
		}
		return sqep.NewCount(in), nil
	}, hw.BlueGene, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := q.Extract(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.One(); err != nil {
		t.Fatal(err)
	}

	edges := e.Edges()
	fanIn := 0
	for _, ed := range edges {
		if ed.Consumer == b.ID() {
			fanIn++
			if ed.Carrier != "tcp" {
				t.Errorf("be->bg edge should be tcp: %+v", ed)
			}
		}
	}
	if fanIn != 3 {
		t.Errorf("merge fan-in edges = %d, want 3", fanIn)
	}
}
