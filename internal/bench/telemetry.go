package bench

import (
	"fmt"
	"io"

	"scsq/internal/carrier"
	"scsq/internal/core"
	"scsq/internal/metrics"
	"scsq/internal/scsql"
	"scsq/internal/vtime"
)

// TelemetryConfig parameterizes the instrumented bench run: one Figure 6
// point executed with the metrics registry and the frame tracer attached.
type TelemetryConfig struct {
	BufBytes   int
	ArrayBytes int
	ArrayCount int
	// TraceLimit bounds buffered trace events (<= 0 uses the default).
	TraceLimit int
}

// DefaultTelemetry is the 64 KiB double-buffered point of Figure 6 — the
// paper's SCSQ default — at Figure 6's workload for the sizing.
func DefaultTelemetry(s Sizing) TelemetryConfig {
	w := s.workload(300_000, 20)
	return TelemetryConfig{BufBytes: 64 << 10, ArrayBytes: w.ArrayBytes, ArrayCount: w.ArrayCount}
}

// TelemetryReport is the outcome of one instrumented run: the measured
// bandwidth, the full metrics snapshot, and the buffered frame trace.
type TelemetryReport struct {
	BufBytes int
	// PayloadBytes is the total wire volume the carriers delivered — the sum
	// of every link.bytes.* counter. Reporting the counter sum (rather than
	// an independently computed workload size) is deliberate: it ties the
	// headline number to the telemetry it summarizes.
	PayloadBytes int64
	Makespan     vtime.Time
	Mbps         float64
	Snapshot     metrics.Snapshot

	tracer *metrics.Tracer
}

// WriteTrace writes the run's frame trace as Chrome/Perfetto trace-event
// JSON.
func (r *TelemetryReport) WriteTrace(w io.Writer) error {
	return r.tracer.WriteJSON(w)
}

// RunTelemetry executes one Figure 6 point (intra-BG point-to-point
// streaming, double buffering) on a fresh engine with telemetry and tracing
// enabled, and returns the measured bandwidth together with the metrics
// snapshot and frame trace.
func RunTelemetry(cfg TelemetryConfig) (*TelemetryReport, error) {
	if cfg.BufBytes <= 0 {
		return nil, fmt.Errorf("bench: MPI buffer size must be positive, got %d", cfg.BufBytes)
	}
	if err := (workload{cfg.ArrayBytes, cfg.ArrayCount, 1}).validate(); err != nil {
		return nil, err
	}
	tracer := metrics.NewTracer(cfg.TraceLimit)
	eng, err := core.NewEngine(core.Config{
		MPIBufferBytes: cfg.BufBytes,
		Buffering:      carrier.DoubleBuffered,
		Tracer:         tracer,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ev := scsql.NewEvaluator(eng, nil)
	res, err := ev.Exec(scsql.Figure5Query(cfg.ArrayBytes, cfg.ArrayCount))
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if _, err := res.Stream.Drain(); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	makespan := res.Stream.Makespan()
	if makespan <= 0 {
		return nil, fmt.Errorf("bench: query finished with non-positive makespan %v", makespan)
	}
	snap := eng.MetricsSnapshot()
	payload := snap.SumCounters("link.bytes.")
	return &TelemetryReport{
		BufBytes:     cfg.BufBytes,
		PayloadBytes: payload,
		Makespan:     makespan,
		Mbps:         float64(payload) * 8 / makespan.Sub(0).Seconds() / 1e6,
		Snapshot:     snap,
		tracer:       tracer,
	}, nil
}
