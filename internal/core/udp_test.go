package core

import (
	"testing"

	"scsq/internal/hw"
	"scsq/internal/sqep"
)

// runInboundCount builds a Query-1-style inbound pipeline (n back-end
// generators merged and counted on the BlueGene) and returns the count.
func runInboundCount(t *testing.T, e *Engine, n, size, count int) int64 {
	t.Helper()
	gen := func(*PlanBuilder) (sqep.Operator, error) {
		return sqep.NewGenArray(size, count), nil
	}
	subs := make([]Subquery, n)
	for i := range subs {
		subs[i] = gen
	}
	q := beginQuery(t, e)
	a, err := spv(q, subs, hw.BackEnd, mustSeq(t, 1))
	if err != nil {
		t.Fatalf("spv: %v", err)
	}
	b, err := q.SP(func(pb *PlanBuilder) (sqep.Operator, error) {
		in, err := pb.Merge(a)
		if err != nil {
			return nil, err
		}
		return sqep.NewStreamOf(sqep.NewCount(in)), nil
	}, hw.BlueGene, nil)
	if err != nil {
		t.Fatalf("sp: %v", err)
	}
	cs, err := q.Extract(b)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	v, err := cs.One()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	got, ok := v.(int64)
	if !ok {
		t.Fatalf("result = %T, want int64", v)
	}
	return got
}

// TestUDPInboundObservesLoss runs a counting query over the lossy UDP
// inbound path: the count at the BlueGene reveals the dropped arrays,
// exactly how a bandwidth-measurement query would observe UDP loss.
func TestUDPInboundObservesLoss(t *testing.T) {
	const n, size, count = 2, 5_000, 200

	lossless, err := NewEngine(Config{UDPInbound: udpLoss(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer lossless.Close()
	got := runInboundCount(t, lossless, n, size, count)
	if got != int64(n*count) {
		t.Fatalf("lossless UDP count = %d, want %d", got, n*count)
	}

	lossy, err := NewEngine(Config{UDPInbound: udpLoss(0.25)})
	if err != nil {
		t.Fatal(err)
	}
	defer lossy.Close()
	gotLossy := runInboundCount(t, lossy, n, size, count)
	if gotLossy >= int64(n*count) {
		t.Fatalf("lossy UDP count = %d, want < %d", gotLossy, n*count)
	}
	if gotLossy < int64(float64(n*count)*0.5) {
		t.Fatalf("lossy UDP count = %d implausibly low for 25%% loss", gotLossy)
	}

	// Determinism: the same engine configuration loses the same frames.
	lossy2, err := NewEngine(Config{UDPInbound: udpLoss(0.25)})
	if err != nil {
		t.Fatal(err)
	}
	defer lossy2.Close()
	gotLossy2 := runInboundCount(t, lossy2, n, size, count)
	if gotLossy2 != gotLossy {
		t.Errorf("loss not reproducible: %d vs %d", gotLossy, gotLossy2)
	}
}

// udpLoss is Config.UDPInbound for loss rate r.
func udpLoss(r float64) *float64 { return &r }

func TestUDPOptionValidation(t *testing.T) {
	if _, err := NewEngine(Config{UDPInbound: udpLoss(1.5)}); err == nil {
		t.Error("loss rate 1.5 should be rejected")
	}
}

// TestUDPEdgesMarked checks topology introspection labels UDP links.
func TestUDPEdgesMarked(t *testing.T) {
	e, err := NewEngine(Config{UDPInbound: udpLoss(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	runInboundCount(t, e, 1, 1000, 2)
	udp := 0
	for _, ed := range e.Edges() {
		if ed.Carrier == "udp" {
			udp++
		}
	}
	if udp != 1 {
		t.Errorf("udp edges = %d, want 1", udp)
	}
}
