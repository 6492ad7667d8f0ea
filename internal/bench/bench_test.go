package bench

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// The tests in this file assert the shape-level reproduction targets from
// DESIGN.md §5: who wins, by roughly what factor, and where the crossovers
// fall — not absolute numbers.

// value returns the point of series at x, failing the test when the figure
// has none.
func value(t *testing.T, pts []Point, x any, series string) Point {
	t.Helper()
	for _, p := range pts {
		if p.X == fmt.Sprint(x) && p.Series == series {
			return p
		}
	}
	t.Fatalf("no point (%v, %s) among %d points", x, series, len(pts))
	return Point{}
}

// runFigure runs the registry entry name.
func runFigure(t *testing.T, name string) []Point {
	t.Helper()
	figs, err := Select(name)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := figs[0].Run(Sizing{})
	if err != nil {
		t.Fatalf("figure %s: %v", name, err)
	}
	return pts
}

// The shapes of Figures 6 and 8 are asserted on their committed CSVs: the
// whole figure takes about a minute to read, so TestFigure6Golden and
// TestFigure8Golden tie only the points from 3 kB up to the code, and CI's
// full-scale step ties the rest.

func TestFigure6Shape(t *testing.T) {
	pts := goldenPoints(t, "6")
	at := func(buf int, series string) Point { return value(t, pts, buf, series) }
	bestSingle, bestDouble := bufSizes[0], bufSizes[0]
	for _, buf := range bufSizes {
		if at(buf, "single").Value > at(bestSingle, "single").Value {
			bestSingle = buf
		}
		if at(buf, "double").Value > at(bestDouble, "double").Value {
			bestDouble = buf
		}
	}

	// "The optimal buffer size is 1000 bytes for both single and double
	// buffering."
	if bestSingle != 1000 {
		t.Errorf("single-buffer optimum at %d B, want 1000 B", bestSingle)
	}
	if bestDouble != 1000 {
		t.Errorf("double-buffer optimum at %d B, want 1000 B", bestDouble)
	}
	// Degradation below 1 KB (the smallest torus message) ...
	if !(at(100, "single").Value < at(1000, "single").Value/2) {
		t.Errorf("100 B buffers should be far below the 1 KB optimum: %v vs %v",
			at(100, "single"), at(1000, "single"))
	}
	// ... and drop-off above it (cache misses): monotone decline.
	prev := at(1000, "single").Value
	for _, buf := range []int{3000, 10_000, 30_000, 100_000, 300_000, 1_000_000} {
		cur := at(buf, "single").Value
		if cur >= prev {
			t.Errorf("single-buffer bandwidth should decline above 1 KB: %d B gives %.1f ≥ %.1f", buf, cur, prev)
		}
		prev = cur
	}
	// "Double buffering pays off for large buffers": the crossover lies
	// between 3 KB and 10 KB, and from there the gain grows with the buffer.
	gain := 0.0
	for _, buf := range bufSizes {
		single, double := at(buf, "single"), at(buf, "double")
		switch g := double.Value / single.Value; {
		case buf <= 3000 && g >= 1:
			t.Errorf("single buffering should win at %d B, below the crossover: double %v vs single %v", buf, double, single)
		case buf >= 10_000 && g <= gain:
			t.Errorf("the double-buffering gain should grow above the crossover: %d B gains %.2f%% over single, after %.2f%%", buf, (g-1)*100, (gain-1)*100)
		case buf >= 10_000:
			gain = g
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	pts := goldenPoints(t, "8")
	at := func(buf int, series string) float64 { return value(t, pts, buf, series).Value }

	// "The streaming bandwidth depends highly on the compute nodes to which
	// the RPs are allocated": the balanced selection beats the sequential one
	// by 37–77 % for buffers of 10 KB and up, single or double buffered (the
	// paper reports up to 60 %).
	for _, buf := range bufSizes[4:] {
		for _, mode := range []string{"single", "double"} {
			gain := math.Round((at(buf, "bal/"+mode)/at(buf, "seq/"+mode) - 1) * 100)
			if gain < 37 || gain > 77 {
				t.Errorf("balanced should beat sequential by 37–77%% at %d B, %s buffered: %.0f%%", buf, mode, gain)
			}
		}
	}
	// "Sending larger but fewer messages is beneficial for stream merging":
	// the merging optimum lies at 3 KB (sequential) and 10 KB (balanced), above
	// point-to-point's 1 KB.
	for _, series := range []string{"seq/single", "seq/double", "bal/single", "bal/double"} {
		best := bufSizes[0]
		for _, buf := range bufSizes {
			if at(buf, series) > at(best, series) {
				best = buf
			}
		}
		want := 3000
		if strings.HasPrefix(series, "bal/") {
			want = 10_000
		}
		if best != want {
			t.Errorf("%s merging optimum at %d B, want %d B", series, best, want)
		}
	}
	// At small buffers the switching penalty dominates and the topologies
	// converge.
	for _, buf := range []int{100, 300, 1000} {
		ratio := at(buf, "bal/single") / at(buf, "seq/single")
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("topologies should converge at %d B, got ratio %.2f", buf, ratio)
		}
	}
	// "Buffers smaller than 10K are much slower for stream merging than for
	// point-to-point communication."
	p2p := goldenPoints(t, "6")
	for _, buf := range []int{100, 300, 1000} {
		merge := at(buf, "bal/single")
		point := value(t, p2p, buf, "single").Value
		if !(merge < 0.6*point) {
			t.Errorf("merging at %d B should be much slower than point-to-point: %.1f vs %.1f Mbps", buf, merge, point)
		}
	}
	// "The benefit of double buffering is less significant than that of
	// point-to-point communication": bounded gain.
	for _, buf := range []int{100_000, 1_000_000} {
		gain := at(buf, "bal/double") / at(buf, "bal/single")
		if gain > 1.25 {
			t.Errorf("double-buffering gain for merging at %d B too large: %.0f%%", buf, (gain-1)*100)
		}
	}
}

func TestFigure15Shape(t *testing.T) {
	pts := runFigure(t, "15")
	q := func(query, n int) float64 { return value(t, pts, n, "Query "+strconv.Itoa(query)).Value }

	// (1) Queries 1-4 (single I/O node) are significantly below Queries 5-6.
	for n := 2; n <= 8; n++ {
		for _, lo := range []int{1, 2, 3, 4} {
			if !(q(lo, n) < 0.7*q(5, n)) {
				t.Errorf("query %d at n=%d (%.0f Mbps) should be well below query 5 (%.0f Mbps)", lo, n, q(lo, n), q(5, n))
			}
		}
	}
	// (2) Parallelizing the receivers helps a little: Q3 exceeds Q1 by 4–15 %
	// for n ≥ 3, and Q4 ≥ Q2.
	for n := 3; n <= 8; n++ {
		if gain := math.Round((q(3, n)/q(1, n) - 1) * 100); gain < 4 || gain > 15 {
			t.Errorf("query 3 at n=%d (%.0f) should exceed query 1 (%.0f) by 4–15%%, by %.0f%%", n, q(3, n), q(1, n), gain)
		}
		if q(4, n) < 0.95*q(2, n) {
			t.Errorf("query 4 at n=%d (%.0f) should be at least query 2 (%.0f)", n, q(4, n), q(2, n))
		}
	}
	// (3) The best bandwidth is Query 5's, peaking near the paper's
	// ~920 Mbps, and a single back-end node beats many: Q5 > Q6.
	peak := 0.0
	for n := 1; n <= 8; n++ {
		if q(5, n) > peak {
			peak = q(5, n)
		}
		if n >= 2 && !(q(5, n) > q(6, n)) {
			t.Errorf("query 5 at n=%d (%.0f) should beat query 6 (%.0f)", n, q(5, n), q(6, n))
		}
	}
	if peak < 750 || peak > 1000 {
		t.Errorf("query 5 peak %.0f Mbps outside the paper's ~920 Mbps ballpark", peak)
	}
	// (4) Same-node back-end placement wins: Q1 > Q2.
	for n := 2; n <= 8; n++ {
		if !(q(1, n) > q(2, n)) {
			t.Errorf("query 1 at n=%d (%.0f) should beat query 2 (%.0f)", n, q(1, n), q(2, n))
		}
	}
	// (5) Query 5 dips at n=5, where five streams share four I/O nodes: the
	// point is below its n=4 neighbor and below the best of the recovery
	// points.
	recovery := q(5, 6)
	for _, n := range []int{7, 8} {
		if q(5, n) > recovery {
			recovery = q(5, n)
		}
	}
	if !(q(5, 5) < q(5, 4) && q(5, 5) < recovery) {
		t.Errorf("query 5 should dip at n=5: n=4 %.0f, n=5 %.0f, recovery %.0f", q(5, 4), q(5, 5), recovery)
	}
}

func TestInboundQueryRejectsUnknown(t *testing.T) {
	if _, err := figure15([]int{7}, []int{1}); err == nil || !strings.Contains(err.Error(), "no such inbound query") {
		t.Fatalf("expected unknown-query error, got %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := placeSweep([3]int{0, 8, 4}, []int{1}); err == nil {
		t.Error("a torus without nodes should be rejected")
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(Figures) {
		t.Fatalf("Select(all) = %d figures, %v; want %d", len(all), err, len(Figures))
	}
	seen := map[string]bool{}
	for _, f := range Figures {
		if f.Name == "" || f.Name == "all" || f.Title == "" || f.Run == nil || seen[f.Name] {
			t.Errorf("registry entry %q is incomplete or duplicated", f.Name)
		}
		seen[f.Name] = true
		one, err := Select(f.Name)
		if err != nil || len(one) != 1 || one[0].Name != f.Name {
			t.Errorf("Select(%s) = %v, %v", f.Name, one, err)
		}
	}
	_, err = Select("bogus")
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list figure %s", err, name)
		}
	}
}

func TestMedian(t *testing.T) {
	// The median ignores one-sided outliers; even counts take the middle pair.
	if m := median("x", "s", "ns", []float64{5, 1, 900}); m.Value != 5 || m.N != 3 || m.Stdev == 0 {
		t.Errorf("median of 3 = %+v, want value 5 with spread", m)
	}
	if m := median("x", "s", "ns", []float64{4, 2, 8, 6}); m.Value != 5 {
		t.Errorf("median of 4 = %v, want 5", m.Value)
	}
}
