package bench

import (
	"bytes"
	"fmt"

	"scsq"
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
	// Trace is the run's frame trace as Chrome/Perfetto trace-event JSON.
	Trace []byte
}

// RunTelemetry executes the 64 KiB double-buffered point of Figure 6
// (intra-BG point-to-point streaming of the paper's arrays) as the one
// session of a fresh engine with tracing enabled, and returns the measured
// bandwidth together with the metrics snapshot and frame trace.
func RunTelemetry() (*TelemetryReport, error) {
	eng, err := scsq.New(scsq.WithMPIBufferBytes(telemetryBufBytes), scsq.WithTracing(0))
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	sess, err := eng.Submit(scsql.Figure5Query(paperArrayBytes, paperArrayCount))
	if err == nil {
		_, err = sess.Wait()
	}
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	makespan := vtime.Time(sess.Makespan())
	if makespan <= 0 {
		return nil, fmt.Errorf("bench: query finished with non-positive makespan %v", makespan)
	}
	var trace bytes.Buffer
	if err := eng.WriteTrace(&trace); err != nil {
		return nil, err
	}
	snap := eng.MetricsSnapshot()
	payload := snap.SumCounters("link.bytes.")
	return &TelemetryReport{
		BufBytes:     telemetryBufBytes,
		PayloadBytes: payload,
		Makespan:     makespan,
		Mbps:         mbps(payload, makespan),
		Snapshot:     snap,
		Trace:        trace.Bytes(),
	}, nil
}
