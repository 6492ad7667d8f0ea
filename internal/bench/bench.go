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
// (x, series) → value ± stdev over n runs — the paper's own methodology
// ("every point is measured five times"). A figure's assertions are errors
// from its Run. format.go holds the only three renderers; cmd/scsq-bench is
// a loop over the registry.
//
// Bandwidth experiments execute the corresponding SCSQL query from
// internal/scsql's corpus on a simulated LOFAR environment and measure
// payload bytes divided by the virtual makespan, the same "total time to
// communicate a finite stream of arrays" methodology as the paper.
package bench

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"scsq/internal/carrier"
	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/scsql"
)

// Sizing is everything the command line can say about how large a figure
// runs. Each registry entry documents the fields it ignores.
type Sizing struct {
	// Tiny selects the seconds-scale smoke sizing CI uses.
	Tiny bool
	// PaperScale switches array workloads to the paper's 100 × 3 MB arrays.
	PaperScale bool
	// Repeats is the number of measurements behind each point.
	Repeats int
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
// each entry names the Sizing fields the figure ignores.
var Figures = []Figure{
	// Ignores Tiny.
	{"6", "Figure 6 — intra-BG point-to-point streaming bandwidth by MPI buffer size (bytes)",
		func(s Sizing) ([]Point, error) { return figure6(bufSizes, s.workload(300_000, 20)) }},
	// Ignores Tiny.
	{"8", "Figure 8 — stream merging: total input bandwidth at node c by MPI buffer size (bytes)",
		func(s Sizing) ([]Point, error) { return figure8(bufSizes, s.workload(300_000, 20)) }},
	// Ignores Tiny.
	{"15", "Figure 15 — BG inbound streaming bandwidth by parallel back-end streams n",
		func(s Sizing) ([]Point, error) {
			return figure15([]int{1, 2, 3, 4, 5, 6}, []int{1, 2, 3, 4, 5, 6, 7, 8}, s.workload(100_000, 60))
		}},
	// Ignores Tiny.
	{"ablation", "Node-selection ablation — k-producer BG merge, naive vs topology-aware placement, by producers k",
		func(s Sizing) ([]Point, error) { return ablation([]int{2, 3, 4}, 100_000, s.workload(300_000, 20)) }},
	// Ignores Tiny.
	{"udp", "UDP inbound (extension) — Query 1 topology over the I/O nodes' UDP service, by loss rate",
		func(s Sizing) ([]Point, error) {
			return udpLoss([]float64{0, 0.01, 0.05, 0.1, 0.2}, 4, s.workload(100_000, 60))
		}},
	// Ignores Tiny.
	{"mt", "Multi-tenant contention — k concurrent Query-1 instances, by tenants k",
		func(s Sizing) ([]Point, error) { return multiTenant([]int{1, 2, 3, 4}, 2, s.workload(300_000, 20)) }},
	// Ignores PaperScale and Repeats (3 per point, 2 under Tiny).
	{"place", "Cost-model placement — planner vs greedy for k concurrent Query-1 instances on the 6144-node torus (256 under -tiny), by tenants k", runPlace},
	// Ignores PaperScale. Repeats applies to the bare/observed Figure 6 pair.
	{"sysq", "System catalog — snapshot and query latency by table; Figure 6 wall time bare vs observed by MPI buffer size", runSysq},
	// Ignores PaperScale and Repeats: the figure is an accounting gate.
	{"serve", "Serving layer — concurrent connections over TCP with exact frame accounting, by connections", runServe},
	// Ignores PaperScale and Repeats: one full soak per seed.
	{"soak", "Chaos soak — seeded schedules, all resilience features armed, by seed", runSoak},
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
	ArrayBytes, ArrayCount, Repeats int
}

// workload resolves the sizing against a figure's laptop-scale default,
// which preserves the paper's curve shapes while running in seconds.
func (s Sizing) workload(arrayBytes, arrayCount int) workload {
	if s.PaperScale {
		arrayBytes, arrayCount = paperArrayBytes, paperArrayCount
	}
	return workload{arrayBytes, arrayCount, s.Repeats}
}

func (w workload) validate() error {
	if w.ArrayBytes <= 0 || w.ArrayCount <= 0 {
		return fmt.Errorf("bench: array workload must be positive (size=%d count=%d)", w.ArrayBytes, w.ArrayCount)
	}
	if w.Repeats <= 0 {
		return fmt.Errorf("bench: repeats must be positive, got %d", w.Repeats)
	}
	return nil
}

// payload is the byte volume of streams parallel array streams.
func (w workload) payload(streams int) int64 {
	return int64(streams) * int64(w.ArrayBytes) * int64(w.ArrayCount)
}

// summarize folds repeated measurements into the point (x, series): mean,
// population standard deviation and run count.
func summarize(x, series, unit string, runs []float64) Point {
	p := Point{X: x, Series: series, Unit: unit, N: len(runs)}
	if len(runs) == 0 {
		return p
	}
	if slices.Min(runs) == slices.Max(runs) {
		// Identical runs read exactly, not as the rounding of their mean.
		p.Value = runs[0]
		return p
	}
	var sum float64
	for _, v := range runs {
		sum += v
	}
	p.Value = sum / float64(len(runs))
	var varSum float64
	for _, v := range runs {
		varSum += (v - p.Value) * (v - p.Value)
	}
	p.Stdev = math.Sqrt(varSum / float64(len(runs)))
	return p
}

// median summarizes like summarize but reports the median as the value, for
// wall-clock timings whose outliers are all on one side.
func median(x, series, unit string, runs []float64) Point {
	p := summarize(x, series, unit, runs)
	if len(runs) > 0 {
		sorted := append([]float64(nil), runs...)
		sort.Float64s(sorted)
		p.Value = (sorted[(len(sorted)-1)/2] + sorted[len(sorted)/2]) / 2
	}
	return p
}

// reading is a single exact value, not a summary of repeats.
func reading(x, series, unit string, v float64) Point {
	return Point{X: x, Series: series, Unit: unit, Value: v, N: 1}
}

// runQueryOn executes one SCSQL query on an already-running engine and
// returns the measured bandwidth in Mbps for the given payload volume. The
// engine is Reset afterwards, so one engine serves a whole repetition loop:
// the control plane (coordinators, poller) is built once per measurement
// point instead of once per repeat, and every run starts on free devices and
// reads its makespan from its own start.
func runQueryOn(eng *core.Engine, src string, payloadBytes int64) (float64, error) {
	ev := scsql.NewEvaluator(eng, nil)
	res, err := ev.Exec(src)
	if err != nil {
		return 0, fmt.Errorf("bench: %w", err)
	}
	if _, err := res.Stream.Drain(); err != nil {
		return 0, fmt.Errorf("bench: %w", err)
	}
	makespan := res.Stream.Makespan()
	if makespan <= 0 {
		return 0, fmt.Errorf("bench: query finished with non-positive makespan %v", makespan)
	}
	if err := eng.Reset(); err != nil {
		return 0, fmt.Errorf("bench: reset: %w", err)
	}
	return mbps(payloadBytes, makespan), nil
}

// repeatQuery measures src n times on one engine built with cfg.
func repeatQuery(src string, payloadBytes int64, n int, cfg core.Config) ([]float64, error) {
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	runs := make([]float64, 0, n)
	for r := 0; r < n; r++ {
		mbps, err := runQueryOn(eng, src, payloadBytes)
		if err != nil {
			return nil, err
		}
		runs = append(runs, mbps)
	}
	return runs, nil
}

// bufSizes is the MPI buffer-size sweep of Figures 6 and 8.
var bufSizes = []int{100, 300, 1000, 3000, 10_000, 30_000, 100_000, 300_000, 1_000_000}

var bufferings = []struct {
	name string
	mode carrier.Buffering
}{{"single", carrier.SingleBuffered}, {"double", carrier.DoubleBuffered}}

// figure6 regenerates Figure 6: intra-BG point-to-point streaming bandwidth
// versus MPI buffer size for single and double buffering. (Bandwidth depends
// on per-byte and per-buffer costs only, so array size cancels out of the
// MPI model.)
func figure6(bufs []int, w workload) ([]Point, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	src := scsql.Figure5Query(w.ArrayBytes, w.ArrayCount)
	var pts []Point
	for _, buf := range bufs {
		for _, b := range bufferings {
			runs, err := repeatQuery(src, w.payload(1), w.Repeats,
				core.Config{MPIBufferBytes: buf, Buffering: b.mode})
			if err != nil {
				return nil, fmt.Errorf("figure6 buf=%d mode=%s: %w", buf, b.name, err)
			}
			pts = append(pts, summarize(strconv.Itoa(buf), b.name, "Mbps", runs))
		}
	}
	return pts, nil
}

// mergeTopologies are the node placements of the stream-merging experiment
// (paper Figure 7), as the x, y producer nodes feeding consumer node 0.
// Sequential (a=1, b=2) routes b's traffic through a's busy communication
// co-processor (Figure 7A); balanced (a=1, b=4) reaches c over disjoint
// torus channels (Figure 7B).
var mergeTopologies = []struct {
	name string
	x, y int
}{{"seq", 1, 2}, {"bal", 1, 4}}

// figure8 regenerates Figure 8: total streaming input bandwidth at the
// merging node under both node selections and buffering modes.
func figure8(bufs []int, w workload) ([]Point, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	var pts []Point
	for _, buf := range bufs {
		for _, topo := range mergeTopologies {
			src := scsql.MergeQuery(topo.x, topo.y, w.ArrayBytes, w.ArrayCount)
			for _, b := range bufferings {
				runs, err := repeatQuery(src, w.payload(2), w.Repeats,
					core.Config{MPIBufferBytes: buf, Buffering: b.mode})
				if err != nil {
					return nil, fmt.Errorf("figure8 buf=%d topo=%s mode=%s: %w", buf, topo.name, b.name, err)
				}
				pts = append(pts, summarize(strconv.Itoa(buf), topo.name+"/"+b.name, "Mbps", runs))
			}
		}
	}
	return pts, nil
}

// inboundCost rescales the per-message fixed costs of the TCP path to the
// workload's array size (see hw.CostModel.ScaleInboundFixed), which makes
// every per-message cost keep its proportion to the per-byte costs. The
// curves keep their shape but are not identical to a paper-scale 3 MB run:
// Query 5 at n=1 reads 391.673 Mbps scaled and 395.024 Mbps at paper scale
// (0.86 % apart).
func inboundCost(w workload) hw.CostModel {
	return hw.DefaultCostModel().ScaleInboundFixed(float64(w.ArrayBytes) / paperArrayBytes)
}

// figure15 regenerates Figure 15: total inbound streaming bandwidth from
// the back-end cluster into the BlueGene for the given inbound queries.
func figure15(queries, ns []int, w workload) ([]Point, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	cost := inboundCost(w)
	var pts []Point
	for _, q := range queries {
		for _, n := range ns {
			src, err := scsql.InboundQuery(q, n, w.ArrayBytes, w.ArrayCount)
			if err != nil {
				return nil, err
			}
			env, err := hw.NewLOFAR(hw.Config{Cost: cost})
			if err != nil {
				return nil, err
			}
			runs, err := repeatQuery(src, w.payload(n), w.Repeats, core.Config{Env: env})
			if err != nil {
				return nil, fmt.Errorf("figure15 q=%d n=%d: %w", q, n, err)
			}
			pts = append(pts, summarize(strconv.Itoa(n), fmt.Sprintf("Query %d", q), "Mbps", runs))
		}
	}
	return pts, nil
}
