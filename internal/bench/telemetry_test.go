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
	cfg := DefaultTelemetry(Sizing{})
	cfg.ArrayBytes, cfg.ArrayCount = 30_000, 5
	report, err := RunTelemetry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.PayloadBytes != report.Snapshot.SumCounters("link.bytes.") {
		t.Fatalf("payload %d != link byte counter sum %d", report.PayloadBytes, report.Snapshot.SumCounters("link.bytes."))
	}
	if report.PayloadBytes <= int64(cfg.ArrayBytes)*int64(cfg.ArrayCount) {
		t.Fatalf("payload %d should exceed the raw array volume (marshal framing)", report.PayloadBytes)
	}
	if report.Mbps <= 0 {
		t.Fatalf("bandwidth = %v", report.Mbps)
	}
	wantMbps := float64(report.PayloadBytes) * 8 / report.Makespan.Sub(0).Seconds() / 1e6
	if report.Mbps != wantMbps {
		t.Fatalf("Mbps = %v, want %v", report.Mbps, wantMbps)
	}

	var buf bytes.Buffer
	if err := report.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
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

	// The same configuration reproduces the same measurement and the same
	// trace bytes — telemetry inherits the engine's determinism.
	again, err := RunTelemetry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.PayloadBytes != report.PayloadBytes || again.Makespan != report.Makespan || again.Mbps != report.Mbps {
		t.Fatalf("rerun diverged: %+v vs %+v", again, report)
	}
	var buf2 bytes.Buffer
	if err := again.WriteTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("rerun produced different trace bytes")
	}
}

// TestTelemetryMatchesUninstrumentedBandwidth is the tentpole's hard
// constraint at the bench level: the instrumented run's makespan equals the
// makespan of the plain Figure 6 harness on the same configuration.
func TestTelemetryMatchesUninstrumentedBandwidth(t *testing.T) {
	const size, count = 30_000, 5
	cfg := DefaultTelemetry(Sizing{})
	cfg.ArrayBytes, cfg.ArrayCount = size, count
	report, err := RunTelemetry(cfg)
	if err != nil {
		t.Fatal(err)
	}

	pts, err := figure6([]int{cfg.BufBytes}, workload{size, count, 2})
	if err != nil {
		t.Fatal(err)
	}
	double := value(t, pts, cfg.BufBytes, "double")
	// Figure 6 reports raw-array bandwidth; rescale the telemetry number to
	// the same payload definition to compare the underlying makespan.
	rawMbps := float64(size*count) * 8 / report.Makespan.Sub(0).Seconds() / 1e6
	if double.Value != rawMbps || double.Stdev != 0 {
		t.Fatalf("instrumented run bandwidth %v != plain harness %v (stdev %v)", rawMbps, double.Value, double.Stdev)
	}
}

func TestRunTelemetryValidatesConfig(t *testing.T) {
	if _, err := RunTelemetry(TelemetryConfig{BufBytes: 0, ArrayBytes: 1, ArrayCount: 1}); err == nil {
		t.Fatal("zero buffer accepted")
	}
	if _, err := RunTelemetry(TelemetryConfig{BufBytes: 1024, ArrayBytes: 0, ArrayCount: 1}); err == nil {
		t.Fatal("zero array size accepted")
	}
}
