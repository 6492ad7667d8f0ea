// Command scsq-bench regenerates the figures of the paper's evaluation
// (§3) on the simulated LOFAR environment and prints them as text tables or
// CSV.
//
// Usage:
//
//	scsq-bench -fig 6                 # Figure 6 (point-to-point, buffer sweep)
//	scsq-bench -fig 8                 # Figure 8 (stream merging topologies)
//	scsq-bench -fig 15                # Figure 15 (inbound Queries 1-6)
//	scsq-bench -fig ablation          # naive vs topology-aware node selection
//	scsq-bench -fig udp               # extension: inbound streaming over lossy UDP
//	scsq-bench -fig mt                # extension: multi-tenant contention sweep
//	scsq-bench -fig soak              # seeded chaos soak, all resilience features → BENCH_soak.json
//	scsq-bench -fig soak -tiny        # single-seed soak (CI)
//	scsq-bench -fig sysq              # system catalog: snapshot/query latency + non-perturbation gate → BENCH_sysq.json
//	scsq-bench -fig sysq -tiny        # seconds-scale catalog smoke (CI)
//	scsq-bench -fig serve             # serving layer: 1000 concurrent TCP conns, frame accounting → BENCH_serve.json
//	scsq-bench -fig serve -tiny       # 50-connection smoke (CI)
//	scsq-bench -fig place             # cost-model placement planner vs greedy on the 6144-node torus → BENCH_place.json
//	scsq-bench -fig place -tiny       # 256-node torus smoke (CI)
//	scsq-bench -fig all -csv          # everything, machine readable
//	scsq-bench -fig 15 -paper-scale   # the paper's 100 × 3 MB arrays
//	scsq-bench -perf                  # data-plane microbenchmarks → BENCH_dataplane.json
//	scsq-bench -metrics m.json        # instrumented run → metrics snapshot JSON
//	scsq-bench -trace t.json          # instrumented run → Perfetto trace JSON
//
// By default a scaled workload is used that preserves the paper's curve
// shapes while running in seconds; -paper-scale switches to the original
// 3 MB × 100 arrays.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"scsq/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scsq-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig        = flag.String("fig", "all", "figure to regenerate: 6, 8, 15, ablation, udp, mt, soak, sysq, serve, place or all")
		tiny       = flag.Bool("tiny", false, "smoke sizing for -fig soak (single seed), -fig sysq, -fig serve (50 conns) and -fig place (256-node torus)")
		soakOut    = flag.String("soak-out", "BENCH_soak.json", "file the -fig soak report is written to")
		sysqOut    = flag.String("sysq-out", "BENCH_sysq.json", "file the -fig sysq report is written to")
		serveOut   = flag.String("serve-out", "BENCH_serve.json", "file the -fig serve report is written to")
		placeOut   = flag.String("place-out", "BENCH_place.json", "file the -fig place report is written to")
		csv        = flag.Bool("csv", false, "emit CSV instead of text tables")
		paperScale = flag.Bool("paper-scale", false, "use the paper's 100 × 3 MB arrays (slow)")
		repeats    = flag.Int("repeats", 5, "measurement repetitions per point")
		perf       = flag.Bool("perf", false, "run the data-plane microbenchmarks instead of the figures")
		perfOut    = flag.String("perf-out", "BENCH_dataplane.json", "file the -perf report is written to")
		metricsOut = flag.String("metrics", "", "run one instrumented Figure 6 point and write the metrics snapshot JSON to this file")
		traceOut   = flag.String("trace", "", "run one instrumented Figure 6 point and write the Perfetto trace JSON to this file")
	)
	flag.Parse()

	out := os.Stdout
	if *metricsOut != "" || *traceOut != "" {
		return runTelemetry(out, *metricsOut, *traceOut, *paperScale)
	}
	if *perf {
		report, err := bench.RunPerf()
		if err != nil {
			return err
		}
		if err := bench.WritePerf(out, report); err != nil {
			return err
		}
		f, err := os.Create(*perfOut)
		if err != nil {
			return err
		}
		if err := bench.WritePerfJSON(f, report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %s\n", *perfOut)
		return nil
	}
	want := func(f string) bool { return *fig == "all" || *fig == f }

	if want("6") {
		cfg := bench.DefaultFigure6()
		cfg.Repeats = *repeats
		if *paperScale {
			cfg.ArrayBytes, cfg.ArrayCount = bench.PaperArrayBytes, bench.PaperArrayCount
		}
		rows, err := bench.RunFigure6(cfg)
		if err != nil {
			return err
		}
		if *csv {
			if err := bench.CSVFigure6(out, rows); err != nil {
				return err
			}
		} else if err := bench.WriteFigure6(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("8") {
		cfg := bench.DefaultFigure8()
		cfg.Repeats = *repeats
		if *paperScale {
			cfg.ArrayBytes, cfg.ArrayCount = bench.PaperArrayBytes, bench.PaperArrayCount
		}
		rows, err := bench.RunFigure8(cfg)
		if err != nil {
			return err
		}
		if *csv {
			if err := bench.CSVFigure8(out, rows); err != nil {
				return err
			}
		} else if err := bench.WriteFigure8(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("ablation") {
		cfg := bench.DefaultAblation()
		cfg.Repeats = *repeats
		if *paperScale {
			cfg.ArrayBytes, cfg.ArrayCount = bench.PaperArrayBytes, bench.PaperArrayCount
		}
		rows, err := bench.RunSelectorAblation(cfg)
		if err != nil {
			return err
		}
		if err := bench.WriteAblation(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("udp") {
		cfg := bench.DefaultUDPLoss()
		cfg.Repeats = *repeats
		if *paperScale {
			cfg.ArrayBytes, cfg.ArrayCount = bench.PaperArrayBytes, bench.PaperArrayCount
		}
		rows, err := bench.RunUDPLoss(cfg)
		if err != nil {
			return err
		}
		if err := bench.WriteUDPLoss(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("mt") {
		cfg := bench.DefaultMultiTenant()
		cfg.Repeats = *repeats
		if *paperScale {
			cfg.ArrayBytes, cfg.ArrayCount = bench.PaperArrayBytes, bench.PaperArrayCount
		}
		rows, err := bench.RunMultiTenant(cfg)
		if err != nil {
			return err
		}
		if *csv {
			if err := bench.CSVMultiTenant(out, rows); err != nil {
				return err
			}
		} else if err := bench.WriteMultiTenant(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("soak") {
		cfg := bench.DefaultSoak()
		if *tiny {
			cfg = bench.TinySoak()
		}
		report, err := bench.RunSoak(cfg)
		if err != nil {
			return err
		}
		if err := bench.WriteSoak(out, report); err != nil {
			return err
		}
		f, err := os.Create(*soakOut)
		if err != nil {
			return err
		}
		if err := bench.WriteSoakJSON(f, report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *soakOut)
		fmt.Fprintln(out)
	}
	if want("sysq") {
		cfg := bench.DefaultSysq()
		if *tiny {
			cfg = bench.TinySysq()
		}
		report, err := bench.RunSysq(cfg)
		if err != nil {
			return err
		}
		if *csv {
			if err := bench.CSVSysq(out, report); err != nil {
				return err
			}
		} else if err := bench.WriteSysq(out, cfg, report); err != nil {
			return err
		}
		f, err := os.Create(*sysqOut)
		if err != nil {
			return err
		}
		if err := bench.WritePerfJSON(f, report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *sysqOut)
		fmt.Fprintln(out)
	}
	if want("serve") {
		cfg := bench.DefaultServe()
		if *tiny {
			cfg = bench.TinyServe()
		}
		report, err := bench.RunServe(cfg)
		if err != nil {
			return err
		}
		if err := bench.WriteServe(out, report); err != nil {
			return err
		}
		f, err := os.Create(*serveOut)
		if err != nil {
			return err
		}
		if err := bench.WriteServeJSON(f, report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *serveOut)
		fmt.Fprintln(out)
	}
	if want("place") {
		cfg := bench.DefaultPlace()
		if *tiny {
			cfg = bench.TinyPlace()
		}
		start := time.Now()
		rows, err := bench.RunPlace(cfg)
		if err != nil {
			return err
		}
		if err := bench.WritePlace(out, cfg, rows); err != nil {
			return err
		}
		report := bench.NewPlaceReport(cfg, rows, time.Since(start))
		f, err := os.Create(*placeOut)
		if err != nil {
			return err
		}
		if err := bench.WritePlaceJSON(f, report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *placeOut)
		fmt.Fprintln(out)
	}
	if want("15") {
		cfg := bench.DefaultFigure15()
		cfg.Repeats = *repeats
		if *paperScale {
			cfg.ArrayBytes, cfg.ArrayCount = bench.PaperArrayBytes, bench.PaperArrayCount
		}
		rows, err := bench.RunFigure15(cfg)
		if err != nil {
			return err
		}
		if *csv {
			if err := bench.CSVFigure15(out, rows); err != nil {
				return err
			}
		} else if err := bench.WriteFigure15(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// runTelemetry executes one instrumented Figure 6 point (64 KiB,
// double-buffered) and writes the metrics snapshot and/or frame trace.
func runTelemetry(out *os.File, metricsOut, traceOut string, paperScale bool) error {
	cfg := bench.DefaultTelemetry()
	if paperScale {
		cfg.ArrayBytes, cfg.ArrayCount = bench.PaperArrayBytes, bench.PaperArrayCount
	}
	report, err := bench.RunTelemetry(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "telemetry: buf=%d payload=%d bytes makespan=%v bandwidth=%.1f Mbps\n",
		report.BufBytes, report.PayloadBytes, report.Makespan.Sub(0).Std(), report.Mbps)
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report.Snapshot); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", metricsOut)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := report.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", traceOut)
	}
	return nil
}
