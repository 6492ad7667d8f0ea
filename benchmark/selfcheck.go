package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runSelfcheck is the A/A noise check: every workload runs twice at the same
// commit, the second pass in reverse order, each run in a fresh process (so
// set-up and peak RSS are per run), and every end-to-end metric's relative
// difference is printed beside its bound. README.md holds its output at the
// commit that defined the benchmark.
func runSelfcheck(seed int64, seconds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	one := func(w workload) (report, error) {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return report{}, fmt.Errorf("%s: %w", w.name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var rep report
		if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
			return report{}, fmt.Errorf("%s: last line is not a result: %w", w.name, err)
		}
		return rep, nil
	}
	first := make(map[string]report)
	second := make(map[string]report)
	for _, w := range workloads {
		if first[w.name], err = one(w); err != nil {
			return err
		}
	}
	for i := len(workloads) - 1; i >= 0; i-- {
		w := workloads[i]
		if second[w.name], err = one(w); err != nil {
			return err
		}
	}
	fmt.Printf("%-14s %-16s %12s %12s %8s %7s\n", "workload", "metric", "run A", "run B", "diff", "bound")
	exceeded := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := first[w.name].Metrics[d.name].Value, second[w.name].Metrics[d.name].Value
			diff := math.Abs(a-b) / math.Min(a, b)
			mark := ""
			if diff > d.bound {
				mark = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-14s %-16s %12.4f %12.4f %7.2f%% %6.1f%%%s\n", w.name, d.name, a, b, 100*diff, 100*d.bound, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric(s) differ between two runs of one commit by more than their bound: widen the bound, stating this spread", exceeded)
	}
	return nil
}
