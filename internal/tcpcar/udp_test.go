package tcpcar

import (
	"testing"

	"scsq/internal/carrier"
	"scsq/internal/hw"
	"scsq/internal/metrics"
)

func testUDPFabric(t *testing.T, loss float64) (*UDPFabric, *metrics.Registry) {
	t.Helper()
	env, err := hw.NewLOFAR()
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewUDPFabric(env, loss)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	f.SetMetrics(reg)
	return f, reg
}

// linkCounts reads what the be:1 -> bg:0 datagram link counted: frames
// delivered and frames lost on the way.
func udpLinkCounts(reg *metrics.Registry) (delivered, dropped int64) {
	snap := reg.Snapshot()
	return snap.Counters["link.frames.udp:be:1->bg:0"], snap.Counters["link.drops.udp:be:1->bg:0"]
}

func TestNewUDPFabricValidation(t *testing.T) {
	env, err := hw.NewLOFAR()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-0.1, 1.0, 2.0} {
		if _, err := NewUDPFabric(env, bad); err == nil {
			t.Errorf("loss rate %v should be rejected", bad)
		}
	}
}

func TestUDPDialValidation(t *testing.T) {
	f, _ := testUDPFabric(t, 0)
	inbox := make(carrier.Inbox, 1)
	if _, err := f.Dial(bg(0), bg(1), inbox); err == nil {
		t.Error("BG-to-BG should fail")
	}
	if _, err := f.Dial(be(0), be(1), inbox); err == nil {
		t.Error("be-to-be should fail")
	}
	if _, err := f.Dial(be(99), bg(0), inbox); err == nil {
		t.Error("bad node should fail")
	}
}

func TestUDPLosslessDeliversEverything(t *testing.T) {
	f, reg := testUDPFabric(t, 0)
	inbox := make(carrier.Inbox, 64)
	conn, err := f.Dial(be(1), bg(0), inbox)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 50
	for i := 0; i < frames; i++ {
		if _, err := conn.Send(carrier.Frame{Source: "a", Payload: make([]byte, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Send(carrier.Frame{Source: "a", Last: true}); err != nil {
		t.Fatal(err)
	}
	if got := len(inbox); got != frames+1 {
		t.Errorf("delivered %d frames, want %d", got, frames+1)
	}
	if delivered, dropped := udpLinkCounts(reg); delivered != frames+1 || dropped != 0 {
		t.Errorf("link counted %d delivered, %d dropped", delivered, dropped)
	}
}

func TestUDPLossIsDeterministicAndProportional(t *testing.T) {
	run := func() (delivered int, dropped int64) {
		f, reg := testUDPFabric(t, 0.2)
		inbox := make(carrier.Inbox, 1100)
		conn, err := f.Dial(be(1), bg(0), inbox)
		if err != nil {
			t.Fatal(err)
		}
		const frames = 1000
		for i := 0; i < frames; i++ {
			if _, err := conn.Send(carrier.Frame{Source: "a", Payload: make([]byte, 64)}); err != nil {
				t.Fatal(err)
			}
		}
		_, d := udpLinkCounts(reg)
		return len(inbox), d
	}
	d1, drop1 := run()
	d2, drop2 := run()
	if d1 != d2 || drop1 != drop2 {
		t.Fatalf("loss not deterministic: %d/%d vs %d/%d", d1, drop1, d2, drop2)
	}
	// Around 20% loss, with slack for the hash distribution.
	if drop1 < 120 || drop1 > 280 {
		t.Errorf("dropped %d of 1000 at 20%% loss rate", drop1)
	}
	if d1+int(drop1) != 1000 {
		t.Errorf("delivered %d + dropped %d != 1000", d1, drop1)
	}
}

func TestUDPLastFrameAlwaysDelivered(t *testing.T) {
	f, _ := testUDPFabric(t, 0.9)
	inbox := make(carrier.Inbox, 128)
	conn, err := f.Dial(be(1), bg(0), inbox)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := conn.Send(carrier.Frame{Source: "a", Payload: []byte{1}, Last: i == 99}); err != nil {
			t.Fatal(err)
		}
	}
	sawLast := false
	for len(inbox) > 0 {
		if d := <-inbox; d.Last {
			sawLast = true
		}
	}
	if !sawLast {
		t.Error("the Last frame must survive any loss rate")
	}
}

func TestUDPSendAfterClose(t *testing.T) {
	f, _ := testUDPFabric(t, 0)
	inbox := make(carrier.Inbox, 1)
	conn, err := f.Dial(be(1), bg(0), inbox)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(carrier.Frame{Source: "a"}); err != carrier.ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestUDPDroppedFramesStillChargeTheSender(t *testing.T) {
	f, reg := testUDPFabric(t, 0.9)
	inbox := make(carrier.Inbox, 128)
	conn, err := f.Dial(be(1), bg(0), inbox)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := conn.Send(carrier.Frame{Source: "a", Payload: make([]byte, 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := f.Env().Node(hw.BackEnd, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n.NIC.BusyTime() == 0 {
		t.Error("the back-end NIC transmits datagrams whether or not they survive")
	}
	if _, dropped := udpLinkCounts(reg); dropped == 0 {
		t.Error("a 90% loss rate should drop something in 50 frames")
	}
}
