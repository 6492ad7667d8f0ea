package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// testSizing is every workload at 1/100 of its op count with one set-up:
// the smoke test must stay in the seconds, and it checks plumbing, not
// numbers.
var testSizing = sizing{seconds: 10, setups: 1, scale: 0.01}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsEmitEveryMetric runs both kinds of run on every workload and
// requires each defined metric exactly once, finite, with no failed op.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	outDir := t.TempDir()
	for _, w := range workloads {
		for _, run := range []struct {
			kind string
			defs []metricDef
			fn   func() (map[string]float64, tally, error)
		}{
			{"end_to_end", endToEnd, func() (map[string]float64, tally, error) {
				values, timings, tl, err := runEndToEnd(w, 1, testSizing)
				for _, d := range reported {
					if v, ok := timings[d.name]; !ok || !(v > 0) {
						t.Errorf("%s: reported timing %s = %v, want a positive value", w.name, d.name, v)
					}
				}
				return values, tl, err
			}},
			{"per_layer", perLayer, func() (map[string]float64, tally, error) { return runTraced(w, 1, testSizing, outDir) }},
		} {
			values, tl, err := run.fn()
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, run.kind, err)
			}
			if tl.failed != 0 {
				t.Errorf("%s %s: %d of %d ops failed, first: %v", w.name, run.kind, tl.failed, tl.attempted, tl.firstErr)
			}
			// buildReport rejects a missing, extra or non-finite metric.
			rep, err := buildReport(run.defs, values, tl)
			if err != nil {
				t.Errorf("%s %s: %v", w.name, run.kind, err)
				continue
			}
			for name := range rep.Metrics {
				if !metricName.MatchString(name) {
					t.Errorf("%s %s: metric name %q is outside the contract's alphabet", w.name, run.kind, name)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(outDir, w.name+".trace.json")); err != nil {
			t.Errorf("%s: traced run left no trace file: %v", w.name, err)
		}
	}
}

// TestContractMatchesHarness keeps BENCHMARK.json and the harness's own
// tables from drifting apart.
func TestContractMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var contract struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := contract.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness has %s: %s", i, got, w.name, w.why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness has %d", kind, len(got), len(want))
			return
		}
		seen := make(map[string]bool)
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the harness's %v", kind, d.name, d.bound)
			}
			if seen[d.name] {
				t.Errorf("%s: metric %s is defined twice", kind, d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", contract.EndToEnd, endToEnd, true)
	check("per_layer", contract.PerLayer, perLayer, false)
}
