package core

import (
	"testing"
)

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
	got, _ := runInboundCount(t, lossless, n, size, count)
	if got != int64(n*count) {
		t.Fatalf("lossless UDP count = %d, want %d", got, n*count)
	}

	lossy, err := NewEngine(Config{UDPInbound: udpLoss(0.25)})
	if err != nil {
		t.Fatal(err)
	}
	defer lossy.Close()
	gotLossy, _ := runInboundCount(t, lossy, n, size, count)
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
	gotLossy2, _ := runInboundCount(t, lossy2, n, size, count)
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
	if _, _ = runInboundCount(t, e, 1, 1000, 2); true {
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
}
