package bench

import (
	"fmt"
	"testing"
)

func TestUDPLossShape(t *testing.T) {
	pts, err := udpLoss([]float64{0, 0.1, 0.3}, 4)
	if err != nil {
		t.Fatalf("udploss: %v", err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d, want 6 (delivered and goodput at 3 rates)", len(pts))
	}
	delivered := func(rate string) float64 { return value(t, pts, rate, "delivered").Value / 100 }
	if got := delivered("0.00"); got != 1 {
		t.Errorf("lossless delivery = %.3f, want 1", got)
	}
	// Delivery decreases with the loss rate and tracks it roughly.
	prev := delivered("0.00")
	for _, rate := range []float64{0.1, 0.3} {
		got := delivered(fmt.Sprintf("%.2f", rate))
		if got >= prev {
			t.Errorf("delivery must fall with loss: %.3f then %.3f", prev, got)
		}
		if diff := got - (1 - rate); diff > 0.12 || diff < -0.12 {
			t.Errorf("delivery %.3f far from expected %.3f at loss %.2f", got, 1-rate, rate)
		}
		prev = got
	}
}

func TestUDPLossValidation(t *testing.T) {
	if _, err := udpLoss([]float64{0}, 0); err == nil {
		t.Error("zero streams should fail")
	}
	if _, err := udpLoss([]float64{2}, 4); err == nil {
		t.Error("invalid loss rate should fail")
	}
}
