package mpicar

import (
	"testing"

	"scsq/internal/carrier"
	"scsq/internal/hw"
	"scsq/internal/vtime"
)

func testFabric(t *testing.T) *Fabric {
	t.Helper()
	env, err := hw.NewLOFAR()
	if err != nil {
		t.Fatalf("env: %v", err)
	}
	return NewFabric(env)
}

func TestDialValidation(t *testing.T) {
	f := testFabric(t)
	inbox := make(carrier.Inbox, 1)
	if _, err := f.Dial(0, 0, carrier.SingleBuffered, inbox); err == nil {
		t.Error("dialing self should fail (CNK runs one process per node)")
	}
	if _, err := f.Dial(0, 1, 0, inbox); err == nil {
		t.Error("invalid buffering mode should fail")
	}
	if _, err := f.Dial(-1, 1, carrier.SingleBuffered, inbox); err == nil {
		t.Error("bad source node should fail")
	}
	if _, err := f.Dial(0, 99, carrier.SingleBuffered, inbox); err == nil {
		t.Error("bad destination node should fail")
	}
}

func TestPointToPointDelivery(t *testing.T) {
	f := testFabric(t)
	inbox := make(carrier.Inbox, 4)
	conn, err := f.Dial(1, 0, carrier.SingleBuffered, inbox)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	free, err := conn.Send(carrier.Frame{Source: "a", Payload: payload, Ready: 0})
	if err != nil {
		t.Fatal(err)
	}
	m := f.Env().Cost
	// One packet on the sender's co-processor.
	if want := vtime.Time(m.PacketCost); free != want {
		t.Errorf("senderFree = %v, want %v", free, want)
	}
	got := <-inbox
	// Plus the receive stage (0.6 × packet cost) at the neighbor.
	want := vtime.Time(m.PacketCost) + vtime.Time(float64(m.PacketCost)*m.RecvFactor)
	if got.At != want {
		t.Errorf("delivered at %v, want %v", got.At, want)
	}
	if got.ViaTCP {
		t.Error("MPI frames must not be flagged ViaTCP")
	}
}

func TestRoutedTransferChargesIntermediates(t *testing.T) {
	f := testFabric(t)
	inbox := make(carrier.Inbox, 4)
	// Node 2 -> node 0 routes through node 1 (the sequential topology).
	conn, err := f.Dial(2, 0, carrier.SingleBuffered, inbox)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(carrier.Frame{Source: "b", Payload: make([]byte, 2048), Ready: 0}); err != nil {
		t.Fatal(err)
	}
	<-inbox
	mid, err := f.Env().Node(hw.BlueGene, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Coproc.BusyTime() == 0 {
		t.Error("intermediate node 1's co-processor must forward the packets")
	}
	// A direct transfer (4 -> 0) leaves node 1 untouched.
	f2 := testFabric(t)
	inbox2 := make(carrier.Inbox, 4)
	conn2, err := f2.Dial(4, 0, carrier.SingleBuffered, inbox2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Send(carrier.Frame{Source: "a", Payload: make([]byte, 2048), Ready: 0}); err != nil {
		t.Fatal(err)
	}
	<-inbox2
	mid2, err := f2.Env().Node(hw.BlueGene, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mid2.Coproc.BusyTime() != 0 {
		t.Error("direct neighbors must not involve node 1")
	}
}

func TestSubPacketFramesPayWholePacket(t *testing.T) {
	// 1 KB is the smallest torus message: a 100 B frame costs the same
	// co-processor time as a 1024 B frame.
	costOf := func(payload int) vtime.Duration {
		f := testFabric(t)
		inbox := make(carrier.Inbox, 4)
		conn, err := f.Dial(1, 0, carrier.SingleBuffered, inbox)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Send(carrier.Frame{Source: "a", Payload: make([]byte, payload), Ready: 0}); err != nil {
			t.Fatal(err)
		}
		<-inbox
		n, err := f.Env().Node(hw.BlueGene, 1)
		if err != nil {
			t.Fatal(err)
		}
		return n.Coproc.BusyTime()
	}
	if costOf(100) != costOf(1024) {
		t.Errorf("sub-packet frame cost %v != full packet cost %v", costOf(100), costOf(1024))
	}
	if costOf(1025) <= costOf(1024) {
		t.Error("a second packet must cost more")
	}
}

func TestCacheFactorAppliesAboveOnePacket(t *testing.T) {
	// Per-byte efficiency decreases above 1 KB buffers (cache misses).
	perByte := func(payload int) float64 {
		f := testFabric(t)
		inbox := make(carrier.Inbox, 4)
		conn, err := f.Dial(1, 0, carrier.SingleBuffered, inbox)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Send(carrier.Frame{Source: "a", Payload: make([]byte, payload), Ready: 0}); err != nil {
			t.Fatal(err)
		}
		<-inbox
		n, err := f.Env().Node(hw.BlueGene, 1)
		if err != nil {
			t.Fatal(err)
		}
		return float64(n.Coproc.BusyTime()) / float64(payload)
	}
	if perByte(64*1024) <= perByte(1024) {
		t.Error("large buffers must pay the cache penalty per byte")
	}
}

func TestMergeSwitchPenalty(t *testing.T) {
	// With two producers, the receiving co-processor pays the expected
	// switching cost (p-1)/p per frame; with one producer it pays none.
	recvBusy := func(producers int) vtime.Duration {
		f := testFabric(t)
		inbox := make(carrier.Inbox, 16)
		var conns []*carrier.Link
		for p := 0; p < producers; p++ {
			conn, err := f.Dial(1+p, 0, carrier.SingleBuffered, inbox)
			if err != nil {
				t.Fatal(err)
			}
			conns = append(conns, conn)
		}
		// Only the first producer sends; the penalty depends on the count
		// of producers dialed, not on actual interleaving (deterministic
		// expected-rate model).
		if _, err := conns[0].Send(carrier.Frame{Source: "p0", Payload: make([]byte, 1024), Ready: 0}); err != nil {
			t.Fatal(err)
		}
		<-inbox
		n, err := f.Env().Node(hw.BlueGene, 0)
		if err != nil {
			t.Fatal(err)
		}
		return n.Coproc.BusyTime()
	}
	single := recvBusy(1)
	double := recvBusy(2)
	m := hw.DefaultCostModel()
	if want := single + m.CoprocSwitchCost/2; double != want {
		t.Errorf("two-producer receive busy = %v, want %v", double, want)
	}
}

func TestDoubleBufferingOddStall(t *testing.T) {
	send := func(mode carrier.Buffering, payload int) vtime.Time {
		f := testFabric(t)
		inbox := make(carrier.Inbox, 4)
		conn, err := f.Dial(1, 0, mode, inbox)
		if err != nil {
			t.Fatal(err)
		}
		free, err := conn.Send(carrier.Frame{Source: "a", Payload: make([]byte, payload), Ready: 0})
		if err != nil {
			t.Fatal(err)
		}
		<-inbox
		return free
	}
	m := hw.DefaultCostModel()
	// k=3 packets (odd, >1): double buffering pays sync + stall.
	s := send(carrier.SingleBuffered, 3*1024)
	d := send(carrier.DoubleBuffered, 3*1024)
	if want := s + vtime.Time(m.DoubleBufSync) + vtime.Time(m.OddPacketStall); d != want {
		t.Errorf("odd-packet double-buffer send = %v, want %v", d, want)
	}
	// k=2 (even): only the sync cost.
	s = send(carrier.SingleBuffered, 2*1024)
	d = send(carrier.DoubleBuffered, 2*1024)
	if want := s + vtime.Time(m.DoubleBufSync); d != want {
		t.Errorf("even-packet double-buffer send = %v, want %v", d, want)
	}
	// k=1: single-packet frames skip the stall.
	s = send(carrier.SingleBuffered, 512)
	d = send(carrier.DoubleBuffered, 512)
	if want := s + vtime.Time(m.DoubleBufSync); d != want {
		t.Errorf("single-packet double-buffer send = %v, want %v", d, want)
	}
}

func TestSendAfterClose(t *testing.T) {
	f := testFabric(t)
	inbox := make(carrier.Inbox, 1)
	conn, err := f.Dial(1, 0, carrier.SingleBuffered, inbox)
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

func TestFabricReset(t *testing.T) {
	f := testFabric(t)
	inbox := make(carrier.Inbox, 1)
	if _, err := f.Dial(1, 0, carrier.SingleBuffered, inbox); err != nil {
		t.Fatal(err)
	}
	if got := f.Env().ProducersOn(0); got != 1 {
		t.Fatalf("producer count = %d, want 1", got)
	}
	f.Env().Reset()
	if got := f.Env().ProducersOn(0); got != 0 {
		t.Errorf("after reset, producer count = %d, want 0", got)
	}
}

// Env returns the underlying hardware environment.
func (f *Fabric) Env() *hw.Env { return f.env }
