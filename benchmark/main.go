// Command benchmark is SCSQ's one repeatable benchmark: four fixed-count,
// closed-loop workloads driven by a single generator goroutine, every result
// verified, end-to-end metrics measured with tracing off and per-layer
// metrics from a separate traced run. README.md in this directory is the
// glossary; BENCHMARK.json at the repository root is the contract.
//
//	bash benchmark/run.sh --workload p2p_frames --seed 1 --seconds 10 --trace 0
//	go run . -workload serve_rows -trace 1      (from this directory)
//	go run . -selfcheck                         (A/A noise check of every bound)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

// maxProcs caps GOMAXPROCS: one generator goroutine cannot use more, and a
// fixed cap keeps the background tickers' CPU share comparable across hosts.
const maxProcs = 4

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+workloadNames())
		seed      = flag.Int64("seed", 1, "seed of the generated statements")
		seconds   = flag.Int("seconds", 16, "nominal length of the timed phase; op counts are this times a per-workload constant")
		trace     = flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and compare each end-to-end metric with its bound")
		golden    = flag.Bool("write-golden", false, "recompute golden.json (virtual makespans at GOMAXPROCS=1) after a cost-model change")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	switch {
	case *golden:
		exitOn(writeGolden("golden.json"))
		return
	case *selfcheck:
		exitOn(runSelfcheck(*seed, *seconds))
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		exitOn(fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames()))
	}
	if *seconds < 1 {
		exitOn(fmt.Errorf("-seconds must be at least 1, got %d", *seconds))
	}
	sz := sizing{seconds: float64(*seconds), setups: setupRepeats, scale: 1}
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d %s ops=%d warmup=%d\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.Version(), sz.ops(w), sz.warmup(w))

	var (
		values, timings map[string]float64
		t               tally
		defs            []metricDef
		err             error
	)
	if *trace != 0 {
		defs = perLayer
		values, t, err = runTraced(w, *seed, sz, "out")
	} else {
		defs = endToEnd
		values, timings, t, err = runEndToEnd(w, *seed, sz)
	}
	exitOn(err)
	rep, err := buildReport(defs, values, t)
	exitOn(err)
	fmt.Printf("ops_attempted=%d ops_failed=%d failed_ratio=%g\n", t.attempted, t.failed, float64(t.failed)/float64(t.attempted))
	if t.firstErr != nil {
		fmt.Printf("first_failure=%q\n", t.firstErr.Error())
	}
	for _, d := range defs {
		fmt.Printf("%-32s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
	if timings != nil {
		for _, d := range reported {
			fmt.Printf("%-32s %14.4f %s (reported, not gated)\n", d.name, timings[d.name], d.unit)
		}
	}
	line, err := json.Marshal(rep)
	exitOn(err)
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// buildReport checks that exactly the defined metrics were measured, each
// with a finite value, and assembles the result line.
func buildReport(defs []metricDef, values map[string]float64, t tally) (report, error) {
	rep := report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return report{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return report{}, fmt.Errorf("metric %s is not finite: %v", d.name, v)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return report{}, fmt.Errorf("measured %d metrics, defined %d", len(values), len(defs))
	}
	if t.attempted < 1 {
		return report{}, fmt.Errorf("no operation was attempted")
	}
	return rep, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}
