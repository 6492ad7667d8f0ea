package core

import (
	"sync"
	"testing"

	"scsq/internal/hw"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// TestKernelBatchSingleQueryBitIdentical is the engine-level determinism
// gate of the batched virtual-time kernel: the same seeded single query run
// under per-frame commits and under batched commits must produce the same
// result, the same makespan, and the same CPU schedules — bit-identical, not
// approximately.
func TestKernelBatchSingleQueryBitIdentical(t *testing.T) {
	type outcome struct {
		count            int64
		makespan         vtime.Time
		busyBG0, busyBG1 vtime.Duration
		freeBG0, freeBG1 vtime.Time
		busyClient       vtime.Duration
		freeClient       vtime.Time
	}
	run := func(batch int) outcome {
		t.Helper()
		e, err := NewEngine(Config{kernelBatch: batch})
		if err != nil {
			t.Fatalf("engine(batch=%d): %v", batch, err)
		}
		defer e.Close()
		cs := figure5(t, e, 30_000, 10)
		v, err := cs.One()
		if err != nil {
			t.Fatalf("drain(batch=%d): %v", batch, err)
		}
		bg0, _ := e.env.Node(hw.BlueGene, 0)
		bg1, _ := e.env.Node(hw.BlueGene, 1)
		fe0, _ := e.env.Node(hw.FrontEnd, 0)
		return outcome{
			count:      v.(int64),
			makespan:   cs.Makespan(),
			busyBG0:    bg0.CPU.BusyTime(),
			busyBG1:    bg1.CPU.BusyTime(),
			freeBG0:    bg0.CPU.FreeAt(),
			freeBG1:    bg1.CPU.FreeAt(),
			busyClient: fe0.CPU.BusyTime(),
			freeClient: fe0.CPU.FreeAt(),
		}
	}
	serial := run(1)
	if serial.count != 10 {
		t.Fatalf("count = %d, want 10", serial.count)
	}
	for _, batch := range []int{4, DefaultKernelBatch, 64} {
		if got := run(batch); got != serial {
			t.Errorf("batch=%d schedule diverged:\n got %+v\nwant %+v", batch, got, serial)
		}
	}
}

// TestKernelBatchMultiTenantReplayIdentical cross-checks the batched kernel
// under real multi-tenant contention: two concurrent queries share the
// client node's CPU and NIC while their batched receivers
// commit against them. A recorder captures every granted placement in commit
// order; replaying the log through serial UseAs on a fresh unsharded
// reference resource must reproduce each grant bit-identically.
func TestKernelBatchMultiTenantReplayIdentical(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	type rec struct {
		owner      string
		ready      vtime.Time
		service    vtime.Duration
		start, end vtime.Time
	}
	fe0, _ := e.env.Node(hw.FrontEnd, 0)
	logs := map[string]*[]rec{}
	instrument := func(r *vtime.Resource) {
		log := &[]rec{}
		logs[r.Name()] = log
		r.SetRecorder(func(owner string, q vtime.Request) {
			*log = append(*log, rec{owner, q.Ready, q.Service, q.Start, q.End})
		})
	}
	instrument(fe0.CPU) // shared across tenants
	instrument(fe0.NIC) // shared across tenants

	// Two figure5-shaped tenants on disjoint BlueGene nodes, drained
	// concurrently so their client-side reservations genuinely contend.
	build := func(q *Query, genNode, cntNode int) *ClientStream {
		t.Helper()
		var cs *ClientStream
		if err := e.BuildAs(q, func() error {
			cs = figure5seq(t, e, 30_000, 8, genNode, cntNode)
			return nil
		}); err != nil {
			t.Fatalf("build %s: %v", q.ID(), err)
		}
		return cs
	}
	q1, _ := e.BeginQuery()
	q2, _ := e.BeginQuery()
	cs1 := build(q1, 1, 0)
	cs2 := build(q2, 3, 2)
	var wg sync.WaitGroup
	for _, cs := range []*ClientStream{cs1, cs2} {
		wg.Add(1)
		go func(cs *ClientStream) {
			defer wg.Done()
			if v, err := cs.One(); err != nil {
				t.Errorf("drain: %v", err)
			} else if v.(int64) != 8 {
				t.Errorf("count = %v, want 8", v)
			}
		}(cs)
	}
	wg.Wait()

	for _, r := range []*vtime.Resource{fe0.CPU, fe0.NIC} {
		r.SetRecorder(nil)
		log := *logs[r.Name()]
		if len(log) == 0 {
			continue // resource unused by this topology
		}
		ref := vtime.NewResource("ref-" + r.Name())
		for i, rc := range log {
			s, e2 := ref.UseAs(rc.owner, rc.ready, rc.service)
			if s != rc.start || e2 != rc.end {
				t.Fatalf("%s: replay diverged at record %d (owner=%s ready=%v svc=%v): live [%v,%v), replay [%v,%v)",
					r.Name(), i, rc.owner, rc.ready, rc.service, rc.start, rc.end, s, e2)
			}
		}
		if r.BusyTime() != ref.BusyTime() || r.FreeAt() != ref.FreeAt() {
			t.Errorf("%s: busy/free %v/%v, replay %v/%v",
				r.Name(), r.BusyTime(), r.FreeAt(), ref.BusyTime(), ref.FreeAt())
		}
	}
	if len(*logs[fe0.CPU.Name()]) == 0 {
		t.Error("client CPU recorded no placements; the cross-check exercised nothing")
	}
}

// figure5seq is figure5 with explicit node placements, for disjoint
// multi-tenant instances.
func figure5seq(t *testing.T, e *Engine, sizeBytes, count, genNode, cntNode int) *ClientStream {
	t.Helper()
	q := beginQuery(t, e)
	a, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) {
		return sqep.NewGenArray(sizeBytes, count), nil
	}, hw.BlueGene, mustSeq(t, genNode))
	if err != nil {
		t.Fatalf("sp a: %v", err)
	}
	b, err := q.SP(func(pb *PlanBuilder) (sqep.Operator, error) {
		in, err := pb.Extract(a)
		if err != nil {
			return nil, err
		}
		return sqep.NewStreamOf(sqep.NewCount(in)), nil
	}, hw.BlueGene, mustSeq(t, cntNode))
	if err != nil {
		t.Fatalf("sp b: %v", err)
	}
	cs, err := q.Extract(b)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	return cs
}
