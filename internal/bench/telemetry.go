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

// telemetryBufBytes is the MPI buffer of the instrumented run: 64 KiB, the
// paper's SCSQ default.
const telemetryBufBytes = 64 << 10

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

// RunTelemetry executes the 64 KiB double-buffered point of Figure 6
// (intra-BG point-to-point streaming of the paper's arrays) on a fresh
// engine with telemetry and tracing enabled, and returns the measured
// bandwidth together with the metrics snapshot and frame trace.
func RunTelemetry() (*TelemetryReport, error) {
	tracer := metrics.NewTracer(0)
	eng, err := core.NewEngine(core.Config{
		MPIBufferBytes: telemetryBufBytes,
		Buffering:      carrier.DoubleBuffered,
		Tracer:         tracer,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ev := scsql.NewEvaluator(eng, nil)
	res, err := ev.Exec(scsql.Figure5Query(paperArrayBytes, paperArrayCount))
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
		BufBytes:     telemetryBufBytes,
		PayloadBytes: payload,
		Makespan:     makespan,
		Mbps:         float64(payload) * 8 / makespan.Sub(0).Seconds() / 1e6,
		Snapshot:     snap,
		tracer:       tracer,
	}, nil
}
