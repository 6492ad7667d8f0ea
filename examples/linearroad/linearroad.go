// This file implements a simplified Linear Road workload — the
// stream benchmark the paper names as future work (§5: "Further
// measurements could be made using benchmarks such as The Linear Road
// Benchmark"). Vehicles emit position reports (time, vehicle, speed,
// segment); the query computes windowed per-segment average speeds and
// charges tolls on congested segments.
//
// Reports travel through SCSQ as 4-element numerical arrays, so the whole
// workload runs on the unmodified engine; Generator is a deterministic
// traffic simulator (with an optional accident) and SegmentStats is the
// toll-computing SQEP operator.

package main

import (
	"fmt"
	"sort"

	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// Report is one vehicle position report.
type Report struct {
	Time    int     // simulation tick
	Vehicle int     // vehicle id
	Speed   float64 // mph
	Segment int     // highway segment
}

// Encode packs a report into the 4-element array representation used on
// streams.
func (r Report) Encode() []float64 {
	return []float64{float64(r.Time), float64(r.Vehicle), r.Speed, float64(r.Segment)}
}

// DecodeReport unpacks a streamed report.
func DecodeReport(v any) (Report, error) {
	arr, ok := v.([]float64)
	if !ok || len(arr) != 4 {
		return Report{}, fmt.Errorf("linearroad: not a report: %T (len %d)", v, lenOf(v))
	}
	return Report{
		Time:    int(arr[0]),
		Vehicle: int(arr[1]),
		Speed:   arr[2],
		Segment: int(arr[3]),
	}, nil
}

func lenOf(v any) int {
	if arr, ok := v.([]float64); ok {
		return len(arr)
	}
	return -1
}

// Config parameterizes the traffic simulation.
type Config struct {
	Vehicles int
	Segments int
	Ticks    int
	// CruiseSpeed is the free-flow speed.
	CruiseSpeed float64
	// Accident, if non-negative, names a segment where traffic crawls
	// between AccidentFrom and AccidentTo (ticks).
	Accident     int
	AccidentFrom int
	AccidentTo   int
	// CrawlSpeed is the speed inside the accident zone.
	CrawlSpeed float64
}

// DefaultConfig is a small, deterministic highway.
func DefaultConfig() Config {
	return Config{
		Vehicles:     40,
		Segments:     8,
		Ticks:        32,
		CruiseSpeed:  60,
		Accident:     5,
		AccidentFrom: 8,
		AccidentTo:   24,
		CrawlSpeed:   12,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Vehicles <= 0 || c.Segments <= 0 || c.Ticks <= 0 {
		return fmt.Errorf("linearroad: vehicles/segments/ticks must be positive (%d/%d/%d)", c.Vehicles, c.Segments, c.Ticks)
	}
	if c.CruiseSpeed <= 0 {
		return fmt.Errorf("linearroad: cruise speed must be positive, got %v", c.CruiseSpeed)
	}
	if c.Accident >= c.Segments {
		return fmt.Errorf("linearroad: accident segment %d outside highway of %d segments", c.Accident, c.Segments)
	}
	return nil
}

// Generate produces the full deterministic report trace, ordered by tick
// then vehicle. Vehicles start spread over the segments and advance one
// segment every few ticks; inside an active accident zone they crawl.
func Generate(cfg Config) ([]Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var out []Report
	for tick := 0; tick < cfg.Ticks; tick++ {
		for v := 0; v < cfg.Vehicles; v++ {
			// Position advances deterministically; vehicles are staggered.
			pos := (v + tick/4) % cfg.Segments
			speed := cfg.CruiseSpeed - float64(v%7) // mild per-vehicle spread
			if cfg.Accident >= 0 && pos == cfg.Accident &&
				tick >= cfg.AccidentFrom && tick < cfg.AccidentTo {
				speed = cfg.CrawlSpeed
			}
			out = append(out, Report{Time: tick, Vehicle: v, Speed: speed, Segment: pos})
		}
	}
	return out, nil
}

// reportGenCost is the CPU cost to produce one report.
const reportGenCost = 500 * vtime.Nanosecond

// NewGenerator returns a SQEP operator streaming the trace of cfg,
// restricted to segments in [loSeg, hiSeg) — the partitioning knob for
// parallelizing the benchmark over stream processes. Pass 0, cfg.Segments
// for the whole highway.
func NewGenerator(cfg Config, loSeg, hiSeg int) (sqep.Operator, error) {
	reports, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	gen := &generator{}
	for _, r := range reports {
		if r.Segment < loSeg || r.Segment >= hiSeg {
			continue
		}
		gen.reports = append(gen.reports, r)
	}
	return gen, nil
}

type generator struct {
	reports []Report
	pos     int
	ctx     *sqep.Ctx
	now     vtime.Time
}

var _ sqep.Operator = (*generator)(nil)

func (g *generator) Open(ctx *sqep.Ctx) error {
	g.ctx = ctx
	g.pos = 0
	g.now = 0
	return nil
}

func (g *generator) Next() (sqep.Element, bool, error) {
	if g.pos >= len(g.reports) {
		return sqep.Element{}, false, nil
	}
	r := g.reports[g.pos]
	g.pos++
	g.now = g.ctx.Charge(g.now, reportGenCost)
	return sqep.Element{Value: r.Encode(), At: g.now}, true, nil
}

func (g *generator) Close() error { return nil }

// Toll is a toll notification for one segment and window.
type Toll struct {
	WindowEnd int // exclusive tick bound of the window
	Segment   int
	AvgSpeed  float64
	Amount    float64
}

// Encode packs a toll into the 4-element array representation.
func (t Toll) Encode() []float64 {
	return []float64{float64(t.WindowEnd), float64(t.Segment), t.AvgSpeed, t.Amount}
}

// DecodeToll unpacks a streamed toll notification.
func DecodeToll(v any) (Toll, error) {
	arr, ok := v.([]float64)
	if !ok || len(arr) != 4 {
		return Toll{}, fmt.Errorf("linearroad: not a toll: %T", v)
	}
	return Toll{
		WindowEnd: int(arr[0]),
		Segment:   int(arr[1]),
		AvgSpeed:  arr[2],
		Amount:    arr[3],
	}, nil
}

// TollFor computes the Linear-Road-style toll for a windowed average
// speed: free above the congestion threshold, quadratic in the speed
// deficit below it.
func TollFor(avgSpeed float64) float64 {
	const threshold = 40.0
	if avgSpeed >= threshold {
		return 0
	}
	d := threshold - avgSpeed
	return 2 * d * d / 100
}

// tollElemCost is the CPU cost to fold one report into the statistics.
const tollElemCost = 300 * vtime.Nanosecond

// SegmentStats consumes position reports and emits one toll notification
// per (window, segment) with a non-zero toll, ordered by window then
// segment. Windows tumble every WindowTicks simulation ticks.
type SegmentStats struct {
	Input       sqep.Operator
	WindowTicks int

	ctx     *sqep.Ctx
	pending []sqep.Element
	curEnd  int
	sums    map[int]float64
	counts  map[int]int
	at      vtime.Time
	done    bool
}

var _ sqep.Operator = (*SegmentStats)(nil)

// NewSegmentStats returns a toll operator over a report stream.
func NewSegmentStats(input sqep.Operator, windowTicks int) *SegmentStats {
	return &SegmentStats{Input: input, WindowTicks: windowTicks}
}

// Open implements sqep.Operator.
func (s *SegmentStats) Open(ctx *sqep.Ctx) error {
	if s.WindowTicks <= 0 {
		return fmt.Errorf("linearroad: window must be positive, got %d", s.WindowTicks)
	}
	s.ctx = ctx
	s.pending = nil
	s.curEnd = s.WindowTicks
	s.sums = make(map[int]float64)
	s.counts = make(map[int]int)
	s.at = 0
	s.done = false
	return s.Input.Open(ctx)
}

// Next implements sqep.Operator.
func (s *SegmentStats) Next() (sqep.Element, bool, error) {
	for {
		if len(s.pending) > 0 {
			el := s.pending[0]
			s.pending = s.pending[1:]
			return el, true, nil
		}
		if s.done {
			return sqep.Element{}, false, nil
		}
		el, ok, err := s.Input.Next()
		if err != nil {
			return sqep.Element{}, false, err
		}
		if !ok {
			s.done = true
			s.flush()
			continue
		}
		r, err := DecodeReport(el.Value)
		if err != nil {
			return sqep.Element{}, false, err
		}
		s.at = s.ctx.Charge(max(s.at, el.At), tollElemCost)
		for r.Time >= s.curEnd {
			s.flush()
			s.curEnd += s.WindowTicks
		}
		s.sums[r.Segment] += r.Speed
		s.counts[r.Segment]++
	}
}

// flush emits the tolls of the closing window into the pending queue.
func (s *SegmentStats) flush() {
	segments := make([]int, 0, len(s.counts))
	for seg := range s.counts {
		segments = append(segments, seg)
	}
	sort.Ints(segments)
	for _, seg := range segments {
		avg := s.sums[seg] / float64(s.counts[seg])
		if amount := TollFor(avg); amount > 0 {
			t := Toll{WindowEnd: s.curEnd, Segment: seg, AvgSpeed: avg, Amount: amount}
			s.pending = append(s.pending, sqep.Element{Value: t.Encode(), At: s.at})
		}
	}
	s.sums = make(map[int]float64)
	s.counts = make(map[int]int)
}

// Close implements sqep.Operator.
func (s *SegmentStats) Close() error { return s.Input.Close() }
