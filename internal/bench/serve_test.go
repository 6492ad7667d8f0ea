package bench

import "testing"

func TestRunServeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("serve bench skipped in -short")
	}
	const conns, perConn = 50, 2 // the Tiny sizing
	pts, err := runServe(Sizing{Tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	at := func(series string) float64 { return value(t, pts, conns, series).Value }
	if at("peak") != conns+1 {
		t.Errorf("peak conns %v, want %d", at("peak"), conns+1)
	}
	if at("sessions") != conns*perConn {
		t.Errorf("sessions %v, want %d", at("sessions"), conns*perConn)
	}
	if at("dropped") != 0 || at("duplicated") != 0 {
		t.Errorf("frame accounting: %v dropped, %v duplicated", at("dropped"), at("duplicated"))
	}
	if at("ttfb-p99") < at("ttfb-p50") {
		t.Errorf("ttfb p99 %v < p50 %v", at("ttfb-p99"), at("ttfb-p50"))
	}
	if at("rate") <= 0 || at("wall") <= 0 {
		t.Errorf("rate %v sessions/s over %v ms", at("rate"), at("wall"))
	}
}
