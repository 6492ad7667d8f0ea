package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunTelemetry is the acceptance check for the instrumented bench mode:
// the reported payload equals the per-link byte counter sum by construction,
// the bandwidth is consistent with the makespan, and the emitted trace is
// loadable Chrome-trace JSON with events on the virtual timeline.
func TestRunTelemetry(t *testing.T) {
	report, err := RunTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	if report.PayloadBytes != report.Snapshot.SumCounters("link.bytes.") {
		t.Fatalf("payload %d != link byte counter sum %d", report.PayloadBytes, report.Snapshot.SumCounters("link.bytes."))
	}
	if report.PayloadBytes <= paperArrays.payload(1) {
		t.Fatalf("payload %d should exceed the raw array volume (marshal framing)", report.PayloadBytes)
	}
	if report.Mbps <= 0 {
		t.Fatalf("bandwidth = %v", report.Mbps)
	}
	wantMbps := float64(report.PayloadBytes) * 8 / report.Makespan.Sub(0).Seconds() / 1e6
	if report.Mbps != wantMbps {
		t.Fatalf("Mbps = %v, want %v", report.Mbps, wantMbps)
	}

	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(report.Trace, &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var complete int
	names := map[string]bool{}
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
		names[ev.Name] = true
	}
	if complete == 0 {
		t.Fatal("trace holds no complete events")
	}
	for _, want := range []string{"flush", "transfer", "demarshal"} {
		if !names[want] {
			t.Fatalf("trace missing %q spans", want)
		}
	}

	// A second run reproduces the same measurement and the same trace
	// bytes — telemetry inherits the engine's determinism.
	again, err := RunTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	if again.PayloadBytes != report.PayloadBytes || again.Makespan != report.Makespan || again.Mbps != report.Mbps {
		t.Fatalf("rerun diverged: %+v vs %+v", again, report)
	}
	if !bytes.Equal(again.Trace, report.Trace) {
		t.Fatal("rerun produced different trace bytes")
	}
}

// TestTelemetryMatchesUninstrumentedBandwidth: telemetry does not perturb
// the timeline. The instrumented run's makespan equals the makespan of the
// plain Figure 6 harness on the same configuration.
func TestTelemetryMatchesUninstrumentedBandwidth(t *testing.T) {
	report, err := RunTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := readSweep(figure6([]int{report.BufBytes}), nil)
	if err != nil {
		t.Fatal(err)
	}
	double := value(t, pts, report.BufBytes, "double")
	// Figure 6 reports raw-array bandwidth; rescale the telemetry number to
	// the same payload definition to compare the underlying makespan.
	if rawMbps := mbps(paperArrays.payload(1), report.Makespan); double.Value != rawMbps || double.Stdev != 0 {
		t.Fatalf("instrumented run bandwidth %v != plain harness %v (stdev %v)", rawMbps, double.Value, double.Stdev)
	}
}
