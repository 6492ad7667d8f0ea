package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval around a call into a layer, recorded from the
// benchmark's own call sites. Spans of one op share its op id; parent is an
// index into the recorder's spans, -1 for a root.
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory until the run ends. It belongs to the one
// generator goroutine; a nil recorder records nothing, which is how the
// untraced run executes the same op code.
type recorder struct {
	lane  string // Perfetto thread name: which system the spans drove
	epoch time.Time
	spans []span
	open  []int // stack of open span indexes
	op    int
}

func newRecorder(lane string, epoch time.Time) *recorder {
	return &recorder{lane: lane, epoch: epoch}
}

// nextOp starts a new op id for the spans that follow.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

// begin opens a span under the innermost open one and returns its handle.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, op: r.op, parent: parent, start: time.Since(r.epoch)})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].end = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
}

// childSums returns, per span, the total duration of its direct children.
func (r *recorder) childSums() []time.Duration {
	sums := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			sums[s.parent] += s.end - s.start
		}
	}
	return sums
}

// selfTimes returns, per span name, each op's self time in µs: the span's
// duration minus the part its direct children cover, summed over the spans
// of that name within the op.
func (r *recorder) selfTimes() map[string][]float64 {
	childSum := r.childSums()
	type key struct {
		name string
		op   int
	}
	perOp := make(map[key]time.Duration)
	var order []key
	for i, s := range r.spans {
		k := key{s.name, s.op}
		if _, seen := perOp[k]; !seen {
			order = append(order, k)
		}
		perOp[k] += s.end - s.start - childSum[i]
	}
	out := make(map[string][]float64)
	for _, k := range order {
		out[k.name] = append(out[k.name], us(perOp[k]))
	}
	return out
}

// childShare returns, per root span, Σ direct child durations ÷ the root's
// duration: how much of the op the layer spans account for.
func (r *recorder) childShare(root string) []float64 {
	childSum := r.childSums()
	var out []float64
	for i, s := range r.spans {
		if s.name == root && s.end > s.start {
			out = append(out, float64(childSum[i])/float64(s.end-s.start))
		}
	}
	return out
}

// traceEvent is one Chrome/Perfetto trace-event ("X": complete span).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes every recorder's spans as one Chrome/Perfetto JSON file
// (load it at ui.perfetto.dev), one thread lane per recorder.
func writeTrace(path string, counts map[string]float64, recs ...*recorder) error {
	var events []traceEvent
	for tid, r := range recs {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid + 1,
			Args: map[string]any{"name": r.lane},
		})
		for _, s := range r.spans {
			args := map[string]any{"op": s.op}
			if s.parent >= 0 {
				args["parent"] = r.spans[s.parent].name
			}
			events = append(events, traceEvent{
				Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
				Pid: 1, Tid: tid + 1, Args: args,
			})
		}
	}
	doc := map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "counts": counts}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
