package tcpcar

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

func be(n int) Endpoint { return Endpoint{Cluster: hw.BackEnd, Node: n} }
func bg(n int) Endpoint { return Endpoint{Cluster: hw.BlueGene, Node: n} }
func fe(n int) Endpoint { return Endpoint{Cluster: hw.FrontEnd, Node: n} }

func TestDialValidation(t *testing.T) {
	f := testFabric(t)
	inbox := make(carrier.Inbox, 1)
	if _, err := f.Dial(bg(0), bg(1), inbox); err == nil {
		t.Error("BG-to-BG over TCP should fail: MPI is the only allowed protocol inside BlueGene")
	}
	if _, err := f.Dial(Endpoint{Cluster: "zz"}, be(0), inbox); err == nil {
		t.Error("unknown cluster should fail")
	}
	if _, err := f.Dial(be(99), bg(0), inbox); err == nil {
		t.Error("out-of-range node should fail")
	}
}

func TestInboundRegistersStream(t *testing.T) {
	f := testFabric(t)
	inbox := make(carrier.Inbox, 1)
	// be1 -> bg node 9 (pset 1, io node 1)
	if _, err := f.Dial(be(1), bg(9), inbox); err != nil {
		t.Fatal(err)
	}
	if got := f.Env().StreamsOnIO(1); got != 1 {
		t.Errorf("streams on io1 = %d, want 1", got)
	}
	if got := f.Env().DistinctBeNodes(); got != 1 {
		t.Errorf("distinct be nodes = %d, want 1", got)
	}
	// Front-end to BG connections are not counted as back-end peers.
	if _, err := f.Dial(fe(0), bg(2), inbox); err != nil {
		t.Fatal(err)
	}
	if got := f.Env().DistinctBeNodes(); got != 1 {
		t.Errorf("fe connection must not add a be peer; got %d", got)
	}
}

func TestInboundPath(t *testing.T) {
	f := testFabric(t)
	env := f.Env()
	m := env.Cost
	inbox := make(carrier.Inbox, 1)
	conn, err := f.Dial(be(1), bg(0), inbox)
	if err != nil {
		t.Fatal(err)
	}
	const s = 100_000
	free, err := conn.Send(carrier.Frame{Source: "a1", Payload: make([]byte, s), Ready: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Sender is free once the be NIC is done.
	nicSvc := m.BeMsgCost + vtime.Duration(m.BeNICByte*s)
	if free != vtime.Time(nicSvc) {
		t.Errorf("senderFree = %v, want %v", free, nicSvc)
	}
	got := <-inbox
	if !got.ViaTCP {
		t.Error("TCP frames must be flagged ViaTCP")
	}
	// Arrival after io-forwarder (single stream: no switch cost, single
	// peer: no coordination cost) and tree stages.
	want := vtime.Time(nicSvc) +
		vtime.Time(m.IOByte*s) +
		vtime.Time(m.TreeByte*s)
	if got.At != want {
		t.Errorf("arrival = %v, want %v", got.At, want)
	}
	// Resources actually charged.
	ion, err := env.IONodeFor(0)
	if err != nil {
		t.Fatal(err)
	}
	if ion.Forwarder.BusyTime() == 0 || ion.Tree.BusyTime() == 0 {
		t.Error("io forwarder and tree must be charged")
	}
}

func TestCoordinationPenaltyPerDistinctPeer(t *testing.T) {
	// Two streams from DIFFERENT be nodes: each message pays
	// (peers-1)·CiodPeerCost at the io forwarder; from the SAME be node it
	// does not.
	ioBusy := func(beNodes []int) vtime.Duration {
		f := testFabric(t)
		inbox := make(carrier.Inbox, 8)
		var conns []*carrier.Link
		for _, n := range beNodes {
			conn, err := f.Dial(be(n), bg(0), inbox)
			if err != nil {
				t.Fatal(err)
			}
			conns = append(conns, conn)
		}
		if _, err := conns[0].Send(carrier.Frame{Source: "x", Payload: make([]byte, 1000), Ready: 0}); err != nil {
			t.Fatal(err)
		}
		<-inbox
		ion, err := f.Env().IONodeFor(0)
		if err != nil {
			t.Fatal(err)
		}
		return ion.Forwarder.BusyTime()
	}
	m := hw.DefaultCostModel()
	same := ioBusy([]int{1, 1})
	diff := ioBusy([]int{1, 2})
	if want := same + m.CiodPeerCost; diff != want {
		t.Errorf("distinct-peer io busy = %v, want %v (same-node %v + peer cost)", diff, want, same)
	}
}

func TestIOSwitchCostWhenSharingIONode(t *testing.T) {
	// Two streams into the same pset (same be node, so no coordination
	// penalty) pay the io connection-switching cost at rate (p-1)/p.
	f := testFabric(t)
	inbox := make(carrier.Inbox, 8)
	conn1, err := f.Dial(be(1), bg(0), inbox)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Dial(be(1), bg(1), inbox); err != nil {
		t.Fatal(err)
	}
	if _, err := conn1.Send(carrier.Frame{Source: "x", Payload: make([]byte, 1000), Ready: 0}); err != nil {
		t.Fatal(err)
	}
	<-inbox
	ion, err := f.Env().IONodeFor(0)
	if err != nil {
		t.Fatal(err)
	}
	m := f.Env().Cost
	base := vtime.Duration(m.IOByte * 1000)
	if want := base + m.IOSwitchCost/2; ion.Forwarder.BusyTime() != want {
		t.Errorf("io busy = %v, want %v", ion.Forwarder.BusyTime(), want)
	}
}

func TestOutboundPath(t *testing.T) {
	// BG -> front-end result traffic traverses tree, io forwarder and the
	// fe NIC.
	f := testFabric(t)
	inbox := make(carrier.Inbox, 1)
	conn, err := f.Dial(bg(3), fe(0), inbox)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(carrier.Frame{Source: "c", Payload: make([]byte, 9), Ready: 0}); err != nil {
		t.Fatal(err)
	}
	got := <-inbox
	if !got.ViaTCP || got.At <= 0 {
		t.Errorf("outbound delivery = %+v", got)
	}
	feNode, err := f.Env().Node(hw.FrontEnd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if feNode.NIC.BusyTime() == 0 {
		t.Error("fe NIC must be charged")
	}
}

func TestLinuxToLinuxPath(t *testing.T) {
	f := testFabric(t)
	inbox := make(carrier.Inbox, 1)
	conn, err := f.Dial(be(0), fe(1), inbox)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(carrier.Frame{Source: "x", Payload: make([]byte, 100), Ready: 0}); err != nil {
		t.Fatal(err)
	}
	got := <-inbox
	if got.At <= 0 {
		t.Errorf("arrival = %v, want > 0", got.At)
	}
	src, err := f.Env().Node(hw.BackEnd, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := f.Env().Node(hw.FrontEnd, 1)
	if err != nil {
		t.Fatal(err)
	}
	if src.NIC.BusyTime() == 0 || dst.NIC.BusyTime() == 0 {
		t.Error("both NICs must be charged")
	}
}

func TestSendAfterClose(t *testing.T) {
	f := testFabric(t)
	inbox := make(carrier.Inbox, 1)
	conn, err := f.Dial(be(0), bg(0), inbox)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(carrier.Frame{Source: "x"}); err != carrier.ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	// Close keeps the registration for the experiment epoch.
	if got := f.Env().DistinctBeNodes(); got != 1 {
		t.Errorf("registration must survive Close within the epoch; got %d peers", got)
	}
}

func TestEndpointString(t *testing.T) {
	if got := be(2).String(); got != "be:2" {
		t.Errorf("String = %q, want be:2", got)
	}
}

// Env returns the underlying hardware environment.
func (f *Fabric) Env() *hw.Env { return f.env }
