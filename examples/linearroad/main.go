// The linearroad example runs the simplified Linear Road benchmark the
// paper names as future work (§5): vehicles on a simulated highway emit
// position reports, the highway's segments are partitioned over parallel
// BlueGene stream processes (the paper's customized-parallelization idea),
// each process computes windowed per-segment average speeds and tolls, and
// the client merges the toll notifications. An accident on one segment
// congests traffic mid-run; the query's tolls light up exactly there.
package main

import (
	"flag"
	"fmt"
	"os"

	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/sqep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "linearroad:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		parallel = flag.Int("parallel", 4, "stream processes the highway is partitioned over")
		window   = flag.Int("window", 8, "toll window in simulation ticks")
	)
	flag.Parse()

	cfg := DefaultConfig()
	if *parallel < 1 || *parallel > cfg.Segments {
		return fmt.Errorf("parallel must be in [1,%d]", cfg.Segments)
	}

	eng, err := core.NewEngine()
	if err != nil {
		return err
	}
	defer eng.Close()

	// One stream process per segment partition: the generator (standing in
	// for the back-end's report feed) and the toll computation are fused in
	// the process, so only toll notifications leave the BlueGene.
	fmt.Printf("highway: %d segments over %d stream processes, accident on segment %d (ticks %d-%d)\n\n",
		cfg.Segments, *parallel, cfg.Accident, cfg.AccidentFrom, cfg.AccidentTo)
	q, err := eng.BeginQuery()
	if err != nil {
		return err
	}
	per := (cfg.Segments + *parallel - 1) / *parallel
	var workers []*core.SP
	for p := 0; p < *parallel; p++ {
		lo, hi := p*per, min((p+1)*per, cfg.Segments)
		if lo >= hi {
			break
		}
		sp, err := q.SP(func(*core.PlanBuilder) (sqep.Operator, error) {
			gen, err := NewGenerator(cfg, lo, hi)
			if err != nil {
				return nil, err
			}
			return NewSegmentStats(gen, *window), nil
		}, hw.BlueGene, nil)
		if err != nil {
			return err
		}
		workers = append(workers, sp)
		fmt.Printf("  process %s on BG node %d handles segments [%d,%d)\n", sp.ID(), sp.Node(), lo, hi)
	}

	stream, err := q.MergeExtract(workers)
	if err != nil {
		return err
	}
	els, err := stream.Drain()
	if err != nil {
		return err
	}

	fmt.Printf("\ntoll notifications (%d):\n", len(els))
	fmt.Printf("%-8s %-8s %-10s %-8s\n", "window", "segment", "avg mph", "toll")
	var revenue float64
	for _, el := range els {
		tl, err := DecodeToll(el.Value)
		if err != nil {
			return err
		}
		revenue += tl.Amount
		fmt.Printf("%-8d %-8d %-10.1f $%-7.2f\n", tl.WindowEnd, tl.Segment, tl.AvgSpeed, tl.Amount)
	}
	fmt.Printf("\ntotal revenue $%.2f, virtual makespan %v\n", revenue, stream.Makespan().Sub(0).Std())
	return nil
}
