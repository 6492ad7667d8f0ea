// Command scsq-bench regenerates the figures of the paper's evaluation
// (§3) and this repository's extension sweeps on the simulated LOFAR
// environment. It is a loop over the registry bench.Figures: select by -fig,
// run, print each figure as a text table (or long-form CSV), and write the
// one JSON report when -out names a file. Nothing is written otherwise.
//
// Usage:
//
//	scsq-bench -fig 6                 # Figure 6 (point-to-point, buffer sweep)
//	scsq-bench -fig 8                 # Figure 8 (stream merging topologies)
//	scsq-bench -fig 15                # Figure 15 (inbound Queries 1-6)
//	scsq-bench -fig ablation          # naive vs topology-aware node selection
//	scsq-bench -fig udp               # extension: inbound streaming over lossy UDP
//	scsq-bench -fig place             # k concurrent tenants: planner vs greedy vs serialized on the 6144-node torus
//	scsq-bench -fig sysq              # system catalog: snapshot/query latency + non-perturbation gate
//	scsq-bench -fig soak              # seeded chaos soak, every failure path armed
//	scsq-bench -fig soak -tiny        # smoke sizing (6 and 8 from 3 kB buffers up; place at k = 2 on 256 nodes; sysq, soak)
//	scsq-bench -fig all -csv          # every figure above, machine readable under one header
//	scsq-bench -fig place -out BENCH_place.json   # also write the JSON report
//	scsq-bench -metrics m.json        # instrumented run → metrics snapshot JSON
//	scsq-bench -trace t.json          # instrumented run → Perfetto trace JSON
//
// Every bandwidth figure (6, 8, 15, ablation, udp, place) streams the
// paper's 100 × 3 MB arrays at every sizing. Under -tiny, Figures 6 and 8
// read only their buffers from 3 kB up and place only k = 2, each point the
// same as in the full figure.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"scsq/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "scsq-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scsq-bench", flag.ContinueOnError)
	var (
		fig        = fs.String("fig", "all", "figure to regenerate: "+strings.Join(bench.Names(), ", ")+" or all")
		tiny       = fs.Bool("tiny", false, "smoke sizing, for the figures that have one")
		csv        = fs.Bool("csv", false, "emit long-form CSV instead of text tables")
		out        = fs.String("out", "", "also write the JSON report of the run to this file")
		metricsOut = fs.String("metrics", "", "run one instrumented Figure 6 point and write the metrics snapshot JSON to this file")
		traceOut   = fs.String("trace", "", "run one instrumented Figure 6 point and write the Perfetto trace JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *metricsOut != "" || *traceOut != "" {
		return runTelemetry(stdout, *metricsOut, *traceOut)
	}
	figs, err := bench.Select(*fig)
	if err != nil {
		return err
	}

	report := bench.NewReport()
	if *csv {
		if _, err := fmt.Fprintln(stdout, bench.CSVHeader); err != nil {
			return err
		}
	}
	for _, f := range figs {
		start := time.Now()
		pts, err := f.Run(bench.Sizing{Tiny: *tiny})
		if err != nil {
			return fmt.Errorf("-fig %s: %w", f.Name, err)
		}
		res := bench.Result{Figure: f.Name, ElapsedMs: float64(time.Since(start).Microseconds()) / 1e3, Points: pts}
		report.Figures = append(report.Figures, res)
		if *csv {
			err = bench.WriteCSV(stdout, res)
		} else if err = bench.WriteTable(stdout, f.Title, pts); err == nil {
			_, err = fmt.Fprintln(stdout)
		}
		if err != nil {
			return err
		}
	}
	if *out == "" {
		return nil
	}
	return writeFile(*out, func(w io.Writer) error { return bench.WriteJSON(w, report) })
}

// writeFile creates path and fills it through write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTelemetry executes one instrumented Figure 6 point (64 KiB,
// double-buffered) and writes the metrics snapshot and/or frame trace.
func runTelemetry(stdout io.Writer, metricsOut, traceOut string) error {
	report, err := bench.RunTelemetry()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "telemetry: buf=%d payload=%d bytes makespan=%v bandwidth=%.1f Mbps\n",
		report.BufBytes, report.PayloadBytes, report.Makespan.Sub(0).Std(), report.Mbps)
	if metricsOut != "" {
		err := writeFile(metricsOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(report.Snapshot)
		})
		if err != nil {
			return err
		}
	}
	if traceOut != "" {
		return os.WriteFile(traceOut, report.Trace, 0o666)
	}
	return nil
}
