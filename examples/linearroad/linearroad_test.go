package main

import (
	"slices"
	"testing"
	"testing/quick"

	"scsq/internal/hw"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

func testCtx() *sqep.Ctx {
	return &sqep.Ctx{CPU: vtime.NewResource("cpu"), Cost: hw.DefaultCostModel()}
}

func TestReportRoundTrip(t *testing.T) {
	f := func(tick, vehicle uint16, speed float64, seg uint8) bool {
		r := Report{Time: int(tick), Vehicle: int(vehicle), Speed: speed, Segment: int(seg)}
		got, err := DecodeReport(r.Encode())
		return err == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReport("x"); err == nil {
		t.Error("non-array should fail")
	}
	if _, err := DecodeReport([]float64{1, 2}); err == nil {
		t.Error("short array should fail")
	}
}

func TestTollRoundTrip(t *testing.T) {
	tl := Toll{WindowEnd: 8, Segment: 5, AvgSpeed: 12.5, Amount: 15.125}
	got, err := DecodeToll(tl.Encode())
	if err != nil || got != tl {
		t.Errorf("round trip = %+v, %v", got, err)
	}
	if _, err := DecodeToll(42); err == nil {
		t.Error("non-array should fail")
	}
}

func TestTollFormula(t *testing.T) {
	if got := TollFor(60); got != 0 {
		t.Errorf("free-flow toll = %v, want 0", got)
	}
	if got := TollFor(40); got != 0 {
		t.Errorf("threshold toll = %v, want 0", got)
	}
	if got := TollFor(30); got != 2.0 {
		t.Errorf("TollFor(30) = %v, want 2.0", got)
	}
	// Slower traffic pays more.
	if !(TollFor(10) > TollFor(20) && TollFor(20) > TollFor(30)) {
		t.Error("toll must grow as speed drops")
	}
}

func TestGenerateDeterministicAndComplete(t *testing.T) {
	cfg := DefaultConfig()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != cfg.Vehicles*cfg.Ticks {
		t.Fatalf("reports = %d, want %d", len(a), cfg.Vehicles*cfg.Ticks)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Accident slows its segment during the active window.
	sawCrawl := false
	for _, r := range a {
		if r.Segment == cfg.Accident && r.Time >= cfg.AccidentFrom && r.Time < cfg.AccidentTo {
			if r.Speed != cfg.CrawlSpeed {
				t.Fatalf("report in accident zone at cruise speed: %+v", r)
			}
			sawCrawl = true
		}
		if r.Segment < 0 || r.Segment >= cfg.Segments {
			t.Fatalf("report outside highway: %+v", r)
		}
	}
	if !sawCrawl {
		t.Error("no reports from the accident zone")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Vehicles = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero vehicles should fail")
	}
	bad = DefaultConfig()
	bad.Accident = 99
	if _, err := Generate(bad); err == nil {
		t.Error("accident outside the highway should fail")
	}
	bad = DefaultConfig()
	bad.CruiseSpeed = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero cruise speed should fail")
	}
}

func TestGeneratorPartitioning(t *testing.T) {
	cfg := DefaultConfig()
	var total int
	for _, part := range [][2]int{{0, 4}, {4, 8}} {
		gen, err := NewGenerator(cfg, part[0], part[1])
		if err != nil {
			t.Fatal(err)
		}
		ctx := testCtx()
		if err := gen.Open(ctx); err != nil {
			t.Fatal(err)
		}
		els, err := sqep.Drain(gen)
		if err != nil {
			t.Fatal(err)
		}
		for _, el := range els {
			r, err := DecodeReport(el.Value)
			if err != nil {
				t.Fatal(err)
			}
			if r.Segment < part[0] || r.Segment >= part[1] {
				t.Fatalf("report %+v outside partition %v", r, part)
			}
		}
		total += len(els)
	}
	if total != cfg.Vehicles*cfg.Ticks {
		t.Errorf("partitions cover %d reports, want %d", total, cfg.Vehicles*cfg.Ticks)
	}
}

func TestSegmentStatsDetectsAccident(t *testing.T) {
	cfg := DefaultConfig()
	gen, err := NewGenerator(cfg, 0, cfg.Segments)
	if err != nil {
		t.Fatal(err)
	}
	stats := NewSegmentStats(gen, 8)
	ctx := testCtx()
	if err := stats.Open(ctx); err != nil {
		t.Fatal(err)
	}
	els, err := sqep.Drain(stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(els) == 0 {
		t.Fatal("no tolls emitted despite the accident")
	}
	for _, el := range els {
		tl, err := DecodeToll(el.Value)
		if err != nil {
			t.Fatal(err)
		}
		if tl.Segment != cfg.Accident {
			t.Errorf("toll on segment %d, only the accident segment %d should be congested", tl.Segment, cfg.Accident)
		}
		if tl.Amount <= 0 || tl.AvgSpeed >= 40 {
			t.Errorf("implausible toll %+v", tl)
		}
	}
}

// TestSegmentStatsLeavesReportsAlone: stream arrays are shared storage (a
// receiver reuses what it decodes into), so the toll operator reads its
// reports and writes only arrays of its own.
func TestSegmentStatsLeavesReportsAlone(t *testing.T) {
	cfg := DefaultConfig()
	gen, err := NewGenerator(cfg, 0, cfg.Segments)
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx()
	if err := gen.Open(ctx); err != nil {
		t.Fatal(err)
	}
	reports, err := sqep.Drain(gen)
	if err != nil {
		t.Fatal(err)
	}
	pristine := make([][]float64, len(reports))
	for i, el := range reports {
		pristine[i] = slices.Clone(el.Value.([]float64))
	}
	stats := NewSegmentStats(&sqep.Slice{Elements: reports}, 8)
	if err := stats.Open(ctx); err != nil {
		t.Fatal(err)
	}
	tolls, err := sqep.Drain(stats)
	if err != nil || len(tolls) == 0 {
		t.Fatalf("%d tolls, %v", len(tolls), err)
	}
	for i, el := range reports {
		if !slices.Equal(el.Value.([]float64), pristine[i]) {
			t.Fatalf("report %d changed under the toll operator: %v, was %v", i, el.Value, pristine[i])
		}
		for _, toll := range tolls {
			if &toll.Value.([]float64)[0] == &el.Value.([]float64)[0] {
				t.Fatalf("toll shares storage with report %d", i)
			}
		}
	}
}

func TestSegmentStatsNoAccidentNoTolls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Accident = -1
	gen, err := NewGenerator(cfg, 0, cfg.Segments)
	if err != nil {
		t.Fatal(err)
	}
	stats := NewSegmentStats(gen, 8)
	ctx := testCtx()
	if err := stats.Open(ctx); err != nil {
		t.Fatal(err)
	}
	els, err := sqep.Drain(stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(els) != 0 {
		t.Errorf("free-flowing traffic produced %d tolls", len(els))
	}
}

func TestSegmentStatsValidation(t *testing.T) {
	gen, err := NewGenerator(DefaultConfig(), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewSegmentStats(gen, 0).Open(testCtx()); err == nil {
		t.Error("zero window should fail")
	}
	bad := NewSegmentStats(sqep.NewSlice("not a report"), 4)
	if err := bad.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bad.Next(); err == nil {
		t.Error("malformed reports should fail")
	}
}
