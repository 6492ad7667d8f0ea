package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// The tests in this file assert the shape-level reproduction targets from
// DESIGN.md §5: who wins, by roughly what factor, and where the crossovers
// fall — not absolute numbers.

func figure6Rows(t *testing.T) []Figure6Row {
	t.Helper()
	cfg := DefaultFigure6()
	cfg.Repeats = 2
	rows, err := RunFigure6(cfg)
	if err != nil {
		t.Fatalf("figure 6: %v", err)
	}
	return rows
}

// TestFigure6Golden compares Figure 6 byte for byte against the committed
// output of `scsq-bench -fig 6 -repeats 1 -csv`. The figure has one producer
// and one consumer per point, so its virtual schedule does not depend on the
// host scheduler: any difference is a change to the cost model or to the
// order of charges.
func TestFigure6Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/figure6.csv")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultFigure6()
	cfg.Repeats = 1
	rows, err := RunFigure6(cfg)
	if err != nil {
		t.Fatalf("figure 6: %v", err)
	}
	var got bytes.Buffer
	if err := CSVFigure6(&got, rows); err != nil {
		t.Fatal(err)
	}
	got.WriteByte('\n') // the CLI separates figures with a blank line
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Figure 6 differs from testdata/figure6.csv\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

func TestFigure6Shape(t *testing.T) {
	rows := figure6Rows(t)
	byBuf := make(map[int]Figure6Row, len(rows))
	var bestSingle, bestDouble int
	for _, r := range rows {
		byBuf[r.BufBytes] = r
		if r.Single.MeanMbps > byBuf[bestSingle].Single.MeanMbps {
			bestSingle = r.BufBytes
		}
		if r.Double.MeanMbps > byBuf[bestDouble].Double.MeanMbps {
			bestDouble = r.BufBytes
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
	if !(byBuf[100].Single.MeanMbps < byBuf[1000].Single.MeanMbps/2) {
		t.Errorf("100 B buffers should be far below the 1 KB optimum: %v vs %v",
			byBuf[100].Single, byBuf[1000].Single)
	}
	// ... and drop-off above it (cache misses): monotone decline.
	prev := byBuf[1000].Single.MeanMbps
	for _, buf := range []int{3000, 10_000, 30_000, 100_000, 300_000, 1_000_000} {
		cur := byBuf[buf].Single.MeanMbps
		if cur >= prev {
			t.Errorf("single-buffer bandwidth should decline above 1 KB: %d B gives %.1f ≥ %.1f", buf, cur, prev)
		}
		prev = cur
	}
	// "Double buffering pays off for large buffers."
	for _, buf := range []int{30_000, 100_000, 300_000, 1_000_000} {
		r := byBuf[buf]
		if r.Double.MeanMbps <= r.Single.MeanMbps {
			t.Errorf("double buffering should win at %d B: double %v vs single %v", buf, r.Double, r.Single)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	cfg := DefaultFigure8()
	cfg.Repeats = 2
	rows, err := RunFigure8(cfg)
	if err != nil {
		t.Fatalf("figure 8: %v", err)
	}
	byBuf := make(map[int]Figure8Row, len(rows))
	for _, r := range rows {
		byBuf[r.BufBytes] = r
	}

	// "The streaming bandwidth depends highly on the compute nodes to which
	// the RPs are allocated": the balanced selection wins clearly for large
	// buffers (the paper reports up to 60%).
	for _, buf := range []int{100_000, 300_000, 1_000_000} {
		r := byBuf[buf]
		gain := r.BalancedDouble.MeanMbps / r.SequentialDouble.MeanMbps
		if gain < 1.25 {
			t.Errorf("balanced should beat sequential by ≥25%% at %d B, got %.0f%%", buf, (gain-1)*100)
		}
		if gain > 1.8 {
			t.Errorf("balanced advantage at %d B implausibly high: %.0f%%", buf, (gain-1)*100)
		}
	}
	// At small buffers the switching penalty dominates and the topologies
	// converge.
	for _, buf := range []int{100, 300, 1000} {
		r := byBuf[buf]
		ratio := r.BalancedSingle.MeanMbps / r.SequentialSingle.MeanMbps
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("topologies should converge at %d B, got ratio %.2f", buf, ratio)
		}
	}
	// "Buffers smaller than 10K are much slower for stream merging than for
	// point-to-point communication."
	p2p := figure6Rows(t)
	p2pByBuf := make(map[int]Figure6Row, len(p2p))
	for _, r := range p2p {
		p2pByBuf[r.BufBytes] = r
	}
	for _, buf := range []int{100, 300, 1000} {
		merge := byBuf[buf].BalancedSingle.MeanMbps
		point := p2pByBuf[buf].Single.MeanMbps
		if !(merge < 0.6*point) {
			t.Errorf("merging at %d B should be much slower than point-to-point: %.1f vs %.1f Mbps", buf, merge, point)
		}
	}
	// "The benefit of double buffering is less significant than that of
	// point-to-point communication": bounded gain.
	for _, buf := range []int{100_000, 1_000_000} {
		r := byBuf[buf]
		gain := r.BalancedDouble.MeanMbps / r.BalancedSingle.MeanMbps
		if gain > 1.25 {
			t.Errorf("double-buffering gain for merging at %d B too large: %.0f%%", buf, (gain-1)*100)
		}
	}
}

func TestFigure15Shape(t *testing.T) {
	cfg := DefaultFigure15()
	cfg.Repeats = 2
	rows, err := RunFigure15(cfg)
	if err != nil {
		t.Fatalf("figure 15: %v", err)
	}
	at := make(map[[2]int]float64, len(rows))
	for _, r := range rows {
		at[[2]int{r.Query, r.N}] = r.Total.MeanMbps
	}
	q := func(query, n int) float64 { return at[[2]int{query, n}] }

	// (1) Queries 1-4 (single I/O node) are significantly below Queries 5-6.
	for n := 2; n <= 8; n++ {
		for _, lo := range []int{1, 2, 3, 4} {
			if !(q(lo, n) < 0.7*q(5, n)) {
				t.Errorf("query %d at n=%d (%.0f Mbps) should be well below query 5 (%.0f Mbps)", lo, n, q(lo, n), q(5, n))
			}
		}
	}
	// (2) Parallelizing the receivers helps a little: Q3 ≥ Q1, Q4 ≥ Q2.
	for n := 3; n <= 8; n++ {
		if q(3, n) < q(1, n) {
			t.Errorf("query 3 at n=%d (%.0f) should be at least query 1 (%.0f)", n, q(3, n), q(1, n))
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
	// points (comparing against the max tolerates per-point scheduling
	// noise at low repeat counts).
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
	cfg := DefaultFigure15()
	cfg.Queries = []int{7}
	cfg.Repeats = 1
	if _, err := RunFigure15(cfg); err == nil || !strings.Contains(err.Error(), "no such inbound query") {
		t.Fatalf("expected unknown-query error, got %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultFigure6()
	bad.Repeats = 0
	if _, err := RunFigure6(bad); err == nil {
		t.Error("repeats=0 should be rejected")
	}
	bad8 := DefaultFigure8()
	bad8.ArrayBytes = -1
	if _, err := RunFigure8(bad8); err == nil {
		t.Error("negative array size should be rejected")
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{100, 200, 300})
	if s.MeanMbps != 200 {
		t.Errorf("mean = %v, want 200", s.MeanMbps)
	}
	if s.Runs != 3 {
		t.Errorf("runs = %d, want 3", s.Runs)
	}
	if s.StdevMbps < 81 || s.StdevMbps > 82 {
		t.Errorf("stdev = %v, want ≈81.6", s.StdevMbps)
	}
	if zero := summarize(nil); zero.Runs != 0 || zero.MeanMbps != 0 {
		t.Errorf("empty summarize = %+v, want zero", zero)
	}
}
