// Package bench is the experiment harness that regenerates every figure of
// the paper's evaluation (§3): Figure 6 (intra-BG point-to-point streaming
// bandwidth vs MPI buffer size, single vs double buffering), Figure 8
// (stream merging under the sequential and balanced node selections of
// Figure 7), and Figure 15 (BG inbound streaming bandwidth for Queries 1-6
// vs the number of parallel back-end streams), plus this repository's own
// extension sweeps and acceptance gates.
//
// Every figure is one entry of the Figures registry: a name, a title and a
// Run function from a Sizing to a list of Points, each point being
// (x, series) → value ± stdev over n runs. The paper measured every point
// five times on a noisy machine; a virtual reading is exact (DESIGN §11), so
// it is read once and only wall-clock timings summarize several runs. A
// figure's assertions are errors from its Run. format.go holds the only
// three renderers; cmd/scsq-bench is a loop over the registry.
//
// Bandwidth experiments submit the corresponding SCSQL query from
// internal/scsql's corpus to a simulated LOFAR environment and measure
// payload bytes divided by the virtual makespan, the same "total time to
// communicate a finite stream of arrays" methodology as the paper. Each
// point is a session — scsq.New with the point's options, Submit, Wait,
// Session.Makespan — read the way a wire client's statement runs; only
// place and soak, which need a paused kernel or a chaos injector, build a
// core engine of their own.
package bench

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"scsq"
	"scsq/internal/scsql"
	"scsq/internal/vtime"
)

// Sizing is everything the command line can say about how large a figure
// runs. Each registry entry documents what Tiny does to it.
type Sizing struct {
	// Tiny selects the seconds-scale smoke sizing CI uses.
	Tiny bool
}

// Point is one measured value of a figure: series at x.
type Point struct {
	X      string  `json:"x"`
	Series string  `json:"series"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Stdev  float64 `json:"stdev"`
	// N is the number of measurements Value and Stdev summarize.
	N int `json:"n"`
}

// String renders the value as a table cell: "mean±stdev" where the
// measurements spread, the bare value (counts without decimals) otherwise.
func (p Point) String() string {
	switch {
	case p.Stdev > 0:
		return fmt.Sprintf("%.1f±%.1f", p.Value, p.Stdev)
	case p.Value == math.Trunc(p.Value):
		return strconv.FormatFloat(p.Value, 'f', -1, 64)
	}
	return fmt.Sprintf("%.1f", p.Value)
}

// Figure is one registry entry.
type Figure struct {
	Name  string
	Title string
	Run   func(Sizing) ([]Point, error)
}

// Figures is the registry, in the order `-fig all` runs it. The comment on
// each entry says what Tiny does to the figure.
var Figures = []Figure{
	// Tiny reads the buffers from 3 kB up (Sizing.bufs).
	{"6", "Figure 6 — intra-BG point-to-point streaming bandwidth by MPI buffer size (bytes)",
		func(s Sizing) ([]Point, error) { return readSweep(sweep6(s)) }},
	// Tiny reads the buffers from 3 kB up (Sizing.bufs).
	{"8", "Figure 8 — stream merging: total input bandwidth at node c by MPI buffer size (bytes)",
		func(s Sizing) ([]Point, error) { return readSweep(sweep8(s)) }},
	// Ignores Tiny: it always runs the paper's workload.
	{"15", "Figure 15 — BG inbound streaming bandwidth by parallel back-end streams n",
		func(s Sizing) ([]Point, error) { return readSweep(sweep15(s)) }},
	// Ignores Tiny.
	{"ablation", "Node-selection ablation — k-producer BG merge, naive vs topology-aware placement, by producers k",
		func(Sizing) ([]Point, error) { return ablation([]int{2, 3, 4}) }},
	// Ignores Tiny.
	{"udp", "UDP inbound (extension) — Query 1 topology over the I/O nodes' UDP service, by loss rate",
		func(Sizing) ([]Point, error) { return udpLoss([]float64{0, 0.01, 0.05, 0.1, 0.2}, 4) }},
	// Tiny reads k = 2 alone on a 256-node torus (runPlace).
	{"place", "Cost-model placement — planner vs greedy vs serialized for k concurrent Query-1 instances on the 6144-node torus, by tenants k", runPlace},
	{"sysq", "System catalog — snapshot and query latency by table; Figure 6 wall time bare vs observed by MPI buffer size", runSysq},
	{"soak", "Chaos soak — seeded schedules, every failure path armed, by seed", runSoak},
}

// Names lists the registry's figure names in order.
func Names() []string {
	names := make([]string, len(Figures))
	for i, f := range Figures {
		names[i] = f.Name
	}
	return names
}

// Select returns the registry entries -fig names: every figure for "all",
// otherwise the one with that name. An unknown name is an error that lists
// the registry.
func Select(name string) ([]Figure, error) {
	if name == "all" {
		return Figures, nil
	}
	for _, f := range Figures {
		if f.Name == name {
			return []Figure{f}, nil
		}
	}
	return nil, fmt.Errorf("bench: no figure %q (have %s, or all)", name, strings.Join(Names(), ", "))
}

// paperArrayBytes and paperArrayCount are the paper's workload: 100 arrays
// of 3 MB per stream.
const (
	paperArrayBytes = 3_000_000
	paperArrayCount = 100
)

// workload is the array stream every bandwidth figure sends.
type workload struct {
	ArrayBytes, ArrayCount int
}

// paperArrays is the workload of every bandwidth figure at every sizing.
var paperArrays = workload{paperArrayBytes, paperArrayCount}

// payload is the byte volume of streams parallel array streams.
func (w workload) payload(streams int) int64 {
	return int64(streams) * int64(w.ArrayBytes) * int64(w.ArrayCount)
}

// median folds wall-clock timings into the point (x, series): the median
// as the value, since their outliers are all on one side, and the
// population standard deviation around their mean as the spread.
func median(x, series, unit string, runs []float64) Point {
	var sum, varSum float64
	for _, v := range runs {
		sum += v
	}
	mean := sum / float64(len(runs))
	for _, v := range runs {
		varSum += (v - mean) * (v - mean)
	}
	sorted := slices.Sorted(slices.Values(runs))
	return Point{X: x, Series: series, Unit: unit, N: len(runs),
		Value: (sorted[(len(sorted)-1)/2] + sorted[len(sorted)/2]) / 2,
		Stdev: math.Sqrt(varSum / float64(len(runs)))}
}

// reading is a single exact value, not a summary of repeats.
func reading(x, series, unit string, v float64) Point {
	return Point{X: x, Series: series, Unit: unit, Value: v, N: 1}
}

// mbps converts a payload volume over a virtual duration into Mbit/s.
func mbps(payloadBytes int64, t vtime.Time) float64 {
	seconds := t.Sub(0).Seconds()
	if seconds <= 0 {
		return 0
	}
	return float64(payloadBytes) * 8 / seconds / 1e6
}

// sweepPoint is one point of Figures 6, 8, 15 and the ablation: the
// statement that reads it, the payload it streams and the options of the
// engine it runs on.
type sweepPoint struct {
	x, series string
	src       string
	payload   int64
	opts      []scsq.Option
}

// read submits the point's statement as a session of eng, waits for it and
// returns its bandwidth in Mbps.
func (p sweepPoint) read(eng *scsq.Engine) (float64, error) {
	sess, err := eng.Submit(p.src)
	if err == nil {
		_, err = sess.Wait()
	}
	if err != nil {
		return 0, fmt.Errorf("bench: %w", err)
	}
	makespan := sess.Makespan()
	if makespan <= 0 {
		return 0, fmt.Errorf("bench: query finished with non-positive makespan %v", makespan)
	}
	return mbps(p.payload, vtime.Time(makespan)), nil
}

// readSweep reads every point of a sweep once, as the one session of a
// fresh engine built with its options. It takes the sweep builder's error
// too, so that readSweep(sweep6(s)) is one call.
func readSweep(sps []sweepPoint, err error) ([]Point, error) {
	if err != nil {
		return nil, err
	}
	pts := make([]Point, 0, len(sps))
	for _, sp := range sps {
		eng, err := scsq.New(sp.opts...)
		if err != nil {
			return nil, err
		}
		v, err := sp.read(eng)
		eng.Close()
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", sp.x, sp.series, err)
		}
		pts = append(pts, reading(sp.x, sp.series, "Mbps", v))
	}
	return pts, nil
}

// The sweeps of Figures 6, 8 and 15 at a sizing.
func sweep6(s Sizing) ([]sweepPoint, error) { return figure6(s.bufs()), nil }
func sweep8(s Sizing) ([]sweepPoint, error) { return figure8(s.bufs()), nil }
func sweep15(Sizing) ([]sweepPoint, error) {
	return figure15([]int{1, 2, 3, 4, 5, 6}, []int{1, 2, 3, 4, 5, 6, 7, 8})
}

// bufSizes is the MPI buffer-size sweep of Figures 6 and 8.
var bufSizes = []int{100, 300, 1000, 3000, 10_000, 30_000, 100_000, 300_000, 1_000_000}

// bufs is the part of the buffer sweep a sizing reads. Tiny reads the
// buffers from 3 kB up, each point the same as in the full sweep: at the
// paper's workload they cost seconds together, while the frames of the
// 100 B to 1 kB points cost about a minute.
func (s Sizing) bufs() []int {
	if s.Tiny {
		return bufSizes[slices.Index(bufSizes, 3000):]
	}
	return bufSizes
}

// bufferings are the two MPI driver disciplines of Figures 6 and 8, as the
// options that select them (double buffering is the default).
var bufferings = []struct {
	name string
	opts []scsq.Option
}{{"single", []scsq.Option{scsq.WithSingleBuffering()}}, {"double", nil}}

// figure6 is the sweep of Figure 6: intra-BG point-to-point streaming
// bandwidth versus MPI buffer size for single and double buffering.
func figure6(bufs []int) []sweepPoint {
	src := scsql.Figure5Query(paperArrayBytes, paperArrayCount)
	var sps []sweepPoint
	for _, buf := range bufs {
		for _, b := range bufferings {
			sps = append(sps, sweepPoint{strconv.Itoa(buf), b.name, src, paperArrays.payload(1),
				append([]scsq.Option{scsq.WithMPIBufferBytes(buf)}, b.opts...)})
		}
	}
	return sps
}

// mergeTopologies are the node placements of the stream-merging experiment
// (paper Figure 7), as the x, y producer nodes feeding consumer node 0.
// Sequential (a=1, b=2) routes b's traffic through a's busy communication
// co-processor (Figure 7A); balanced (a=1, b=4) reaches c over disjoint
// torus channels (Figure 7B).
var mergeTopologies = []struct {
	name      string
	producers []int
}{{"seq", []int{1, 2}}, {"bal", []int{1, 4}}}

// figure8 is the sweep of Figure 8: total streaming input bandwidth at the
// merging node under both node selections and buffering modes.
func figure8(bufs []int) []sweepPoint {
	var sps []sweepPoint
	for _, buf := range bufs {
		for _, topo := range mergeTopologies {
			src := scsql.MergeQuery(topo.producers, paperArrayBytes, paperArrayCount)
			for _, b := range bufferings {
				sps = append(sps, sweepPoint{strconv.Itoa(buf), topo.name + "/" + b.name, src, paperArrays.payload(2),
					append([]scsq.Option{scsq.WithMPIBufferBytes(buf)}, b.opts...)})
			}
		}
	}
	return sps
}

// figure15 is the sweep of Figure 15: total inbound streaming bandwidth
// from the back-end cluster into the BlueGene for the given inbound queries.
func figure15(queries, ns []int) ([]sweepPoint, error) {
	var sps []sweepPoint
	for _, q := range queries {
		for _, n := range ns {
			src, err := scsql.InboundQuery(q, n, paperArrayBytes, paperArrayCount)
			if err != nil {
				return nil, err
			}
			sps = append(sps, sweepPoint{strconv.Itoa(n), fmt.Sprintf("Query %d", q), src, paperArrays.payload(n), nil})
		}
	}
	return sps, nil
}
