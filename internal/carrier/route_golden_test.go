package carrier_test

import (
	"fmt"
	"slices"
	"testing"

	"scsq/internal/carrier"
	"scsq/internal/hw"
	"scsq/internal/mpicar"
	"scsq/internal/tcpcar"
	"scsq/internal/vtime"
)

// The route golden pins the virtual schedule of every carrier path to
// literal nanoseconds: each case sends two back-to-back frames (the second
// ready when the sender-side device released the first) on a fresh default
// LOFAR environment and records the second frame's senderFree and arrival
// plus the total busy time of every resource on the path, in path order.
// The numbers are what the calibrated cost model of hw.DefaultCostModel
// yields; a change that moves any of them changed the model or the order of
// charges, not just the code.

func be(n int) tcpcar.Endpoint { return tcpcar.Endpoint{Cluster: hw.BackEnd, Node: n} }
func fe(n int) tcpcar.Endpoint { return tcpcar.Endpoint{Cluster: hw.FrontEnd, Node: n} }
func bg(n int) tcpcar.Endpoint { return tcpcar.Endpoint{Cluster: hw.BlueGene, Node: n} }

func newEnv(t *testing.T) *hw.Env {
	t.Helper()
	env, err := hw.NewLOFAR()
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// newTCPEnv is newEnv with a front-end NIC rate that differs from the
// back-end's (the calibrated defaults coincide), so a path that picked the
// wrong cluster's rate shows up in the numbers.
func newTCPEnv(t *testing.T) *hw.Env {
	t.Helper()
	m := hw.DefaultCostModel()
	m.FENICByte = 6.5
	env, err := hw.NewLOFAR(hw.WithCostModel(m))
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// sendTwo sends two payload-byte frames back to back and returns the second
// frame's senderFree and arrival.
func sendTwo(t *testing.T, conn carrier.Conn, inbox carrier.Inbox, payload int) (free, at int64) {
	t.Helper()
	var ready vtime.Time
	for i := 0; i < 2; i++ {
		f, err := conn.Send(carrier.Frame{Source: "g", Payload: make([]byte, payload), Ready: ready})
		if err != nil {
			t.Fatal(err)
		}
		ready = f
		free, at = int64(f), int64((<-inbox).At)
	}
	return free, at
}

func busyOf(rs []*vtime.Resource) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = int64(r.BusyTime())
	}
	return out
}

func check(t *testing.T, free, at int64, busy []int64, wantFree, wantAt int64, wantBusy []int64) {
	t.Helper()
	if free != wantFree || at != wantAt || !slices.Equal(busy, wantBusy) {
		t.Errorf("got  free %d at %d busy %v\nwant free %d at %d busy %v", free, at, busy, wantFree, wantAt, wantBusy)
	}
}

func TestRouteGoldenMPI(t *testing.T) {
	const (
		single = carrier.SingleBuffered
		double = carrier.DoubleBuffered
	)
	// src 1 neighbours dst 0; src 10 is routed through the co-processors of
	// 9, 8 and 4. The second producer, when present, is node 12 (a direct
	// neighbour of 0 that shares no device with either route) and sends
	// nothing: the merge penalty depends on who dialed, not on interleaving.
	cases := []struct {
		mode       carrier.Buffering
		bytes, src int
		producers  int
		free, at   int64
		busy       []int64 // src, forwarders..., dst
	}{
		{single, 100, 1, 1, 32000, 41600, []int64{32000, 19200}},
		{single, 100, 1, 2, 32000, 135200, []int64{32000, 119200}},
		{single, 100, 10, 1, 32000, 89600, []int64{32000, 32000, 32000, 32000, 19200}},
		{single, 100, 10, 2, 32000, 183200, []int64{32000, 32000, 32000, 32000, 119200}},
		{single, 1024, 1, 1, 32000, 41600, []int64{32000, 19200}},
		{single, 1024, 1, 2, 32000, 135200, []int64{32000, 119200}},
		{single, 1024, 10, 1, 32000, 89600, []int64{32000, 32000, 32000, 32000, 19200}},
		{single, 1024, 10, 2, 32000, 183200, []int64{32000, 32000, 32000, 32000, 119200}},
		{single, 3072, 1, 1, 134038, 174249, []int64{134038, 80422}},
		{single, 3072, 1, 2, 134038, 247441, []int64{134038, 180422}},
		{single, 3072, 10, 1, 134038, 375306, []int64{134038, 134038, 134038, 134038, 80422}},
		{single, 3072, 10, 2, 134038, 448498, []int64{134038, 134038, 134038, 134038, 180422}},
		{single, 300000, 1, 1, 28584148, 37159392, []int64{28584148, 17150488}},
		{single, 300000, 1, 2, 28584148, 37209392, []int64{28584148, 17250488}},
		{single, 300000, 10, 1, 28584148, 80035614, []int64{28584148, 28584148, 28584148, 28584148, 17150488}},
		{single, 300000, 10, 2, 28584148, 80085614, []int64{28584148, 28584148, 28584148, 28584148, 17250488}},
		{double, 100, 1, 1, 33000, 42600, []int64{33000, 19200}},
		{double, 100, 1, 2, 33000, 135700, []int64{33000, 119200}},
		{double, 100, 10, 1, 33000, 90600, []int64{33000, 32000, 32000, 32000, 19200}},
		{double, 100, 10, 2, 33000, 183700, []int64{33000, 32000, 32000, 32000, 119200}},
		{double, 1024, 1, 1, 33000, 42600, []int64{33000, 19200}},
		{double, 1024, 1, 2, 33000, 135700, []int64{33000, 119200}},
		{double, 1024, 10, 1, 33000, 90600, []int64{33000, 32000, 32000, 32000, 19200}},
		{double, 1024, 10, 2, 33000, 183700, []int64{33000, 32000, 32000, 32000, 119200}},
		{double, 3072, 1, 1, 151038, 191249, []int64{151038, 80422}},
		{double, 3072, 1, 2, 151038, 255941, []int64{151038, 180422}},
		{double, 3072, 10, 1, 151038, 392306, []int64{151038, 134038, 134038, 134038, 80422}},
		{double, 3072, 10, 2, 151038, 456998, []int64{151038, 134038, 134038, 134038, 180422}},
		{double, 300000, 1, 1, 28601148, 37176392, []int64{28601148, 17150488}},
		{double, 300000, 1, 2, 28601148, 37226392, []int64{28601148, 17250488}},
		{double, 300000, 10, 1, 28601148, 80052614, []int64{28601148, 28584148, 28584148, 28584148, 17150488}},
		{double, 300000, 10, 2, 28601148, 80102614, []int64{28601148, 28584148, 28584148, 28584148, 17250488}},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%dB/src%d/p%d", c.mode, c.bytes, c.src, c.producers), func(t *testing.T) {
			env := newEnv(t)
			fab := mpicar.NewFabric(env)
			inbox := make(carrier.Inbox, 1)
			if c.producers == 2 {
				if _, err := fab.Dial(12, 0, c.mode, inbox); err != nil {
					t.Fatal(err)
				}
			}
			conn, err := fab.Dial(c.src, 0, c.mode, inbox)
			if err != nil {
				t.Fatal(err)
			}
			free, at := sendTwo(t, conn, inbox, c.bytes)
			route, err := env.Torus.Route(c.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			var path []*vtime.Resource
			for _, id := range append([]int{c.src}, route...) {
				n, err := env.Node(hw.BlueGene, id)
				if err != nil {
					t.Fatal(err)
				}
				path = append(path, n.Coproc)
			}
			check(t, free, at, busyOf(path), c.free, c.at, c.busy)
		})
	}
}

// tcpPath lists the resources of the src→dst path in charge order.
func tcpPath(t *testing.T, env *hw.Env, src, dst tcpcar.Endpoint) []*vtime.Resource {
	t.Helper()
	nic := func(e tcpcar.Endpoint) *vtime.Resource {
		n, err := env.Node(e.Cluster, e.Node)
		if err != nil {
			t.Fatal(err)
		}
		return n.NIC
	}
	ion := func(e tcpcar.Endpoint) *hw.IONode {
		io, err := env.IONodeFor(e.Node)
		if err != nil {
			t.Fatal(err)
		}
		return io
	}
	switch {
	case dst.Cluster == hw.BlueGene:
		return []*vtime.Resource{nic(src), ion(dst).Forwarder, ion(dst).Tree}
	case src.Cluster == hw.BlueGene:
		return []*vtime.Resource{ion(src).Tree, ion(src).Forwarder, nic(dst)}
	default:
		return []*vtime.Resource{nic(src), nic(dst)}
	}
}

func TestRouteGoldenTCP(t *testing.T) {
	// others are streams dialed before the one under test; they send
	// nothing and only raise the contention multiplicities: bg 0-7 share
	// I/O node 0, bg 8 sits behind I/O node 1.
	cases := []struct {
		name     string
		src, dst tcpcar.Endpoint
		others   [][2]tcpcar.Endpoint
		bytes    int
		free, at int64
		busy     []int64
	}{
		{"be->bg", be(1), bg(0), nil, 1000, 1017000, 1039850, []int64{1017000, 40000, 5700}},
		{"be->bg", be(1), bg(0), nil, 300000, 6100000, 15905000, []int64{6100000, 12000000, 1710000}},
		{"be->bg/2 streams", be(1), bg(0), [][2]tcpcar.Endpoint{{be(1), bg(1)}}, 1000, 1017000, 24551350, []int64{1017000, 24040000, 5700}},
		{"be->bg/2 streams", be(1), bg(0), [][2]tcpcar.Endpoint{{be(1), bg(1)}}, 300000, 6100000, 39905000, []int64{6100000, 36000000, 1710000}},
		{"be->bg/2 peers", be(1), bg(0), [][2]tcpcar.Endpoint{{be(2), bg(8)}}, 1000, 1017000, 40551350, []int64{1017000, 40040000, 5700}},
		{"be->bg/2 peers", be(1), bg(0), [][2]tcpcar.Endpoint{{be(2), bg(8)}}, 300000, 6100000, 55905000, []int64{6100000, 52000000, 1710000}},
		{"be->bg/2 streams 2 peers", be(1), bg(0), [][2]tcpcar.Endpoint{{be(2), bg(1)}}, 1000, 1017000, 64551350, []int64{1017000, 64040000, 5700}},
		{"be->bg/2 streams 2 peers", be(1), bg(0), [][2]tcpcar.Endpoint{{be(2), bg(1)}}, 300000, 6100000, 79905000, []int64{6100000, 76000000, 1710000}},
		{"fe->bg", fe(0), bg(0), nil, 1000, 1013000, 1035850, []int64{1013000, 40000, 5700}},
		{"fe->bg", fe(0), bg(0), nil, 300000, 4900000, 15305000, []int64{4900000, 12000000, 1710000}},
		{"fe->bg/1 be stream", fe(0), bg(0), [][2]tcpcar.Endpoint{{be(1), bg(1)}}, 1000, 1013000, 1035850, []int64{1013000, 40000, 5700}},
		{"fe->bg/1 be stream", fe(0), bg(0), [][2]tcpcar.Endpoint{{be(1), bg(1)}}, 300000, 4900000, 15305000, []int64{4900000, 12000000, 1710000}},
		{"fe->bg/2 be streams 2 peers", fe(0), bg(0), [][2]tcpcar.Endpoint{{be(1), bg(1)}, {be(2), bg(2)}}, 1000, 1013000, 24549350, []int64{1013000, 24040000, 5700}},
		{"fe->bg/2 be streams 2 peers", fe(0), bg(0), [][2]tcpcar.Endpoint{{be(1), bg(1)}, {be(2), bg(2)}}, 300000, 4900000, 39305000, []int64{4900000, 36000000, 1710000}},
		{"bg->fe", bg(0), fe(0), nil, 1000, 5700, 1035850, []int64{5700, 40000, 1013000}},
		{"bg->fe", bg(0), fe(0), nil, 300000, 1710000, 15305000, []int64{1710000, 12000000, 4900000}},
		{"bg->fe/inbound contention is one-way", bg(0), fe(0), [][2]tcpcar.Endpoint{{be(1), bg(1)}, {be(2), bg(2)}}, 1000, 5700, 1035850, []int64{5700, 40000, 1013000}},
		{"bg->fe/inbound contention is one-way", bg(0), fe(0), [][2]tcpcar.Endpoint{{be(1), bg(1)}, {be(2), bg(2)}}, 300000, 1710000, 15305000, []int64{1710000, 12000000, 4900000}},
		{"bg->be", bg(0), be(1), nil, 1000, 5700, 1039850, []int64{5700, 40000, 1017000}},
		{"bg->be", bg(0), be(1), nil, 300000, 1710000, 15905000, []int64{1710000, 12000000, 6100000}},
		{"be->fe", be(1), fe(0), nil, 1000, 1017000, 1023500, []int64{1017000, 13000}},
		{"be->fe", be(1), fe(0), nil, 300000, 6100000, 8050000, []int64{6100000, 3900000}},
		{"fe->be", fe(0), be(1), nil, 1000, 1013000, 1021500, []int64{1013000, 17000}},
		{"fe->be", fe(0), be(1), nil, 300000, 4900000, 7550000, []int64{4900000, 5100000}},
		{"be->be", be(1), be(2), nil, 1000, 1017000, 1025500, []int64{1017000, 17000}},
		{"be->be", be(1), be(2), nil, 300000, 6100000, 8650000, []int64{6100000, 5100000}},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%dB", c.name, c.bytes), func(t *testing.T) {
			env := newTCPEnv(t)
			fab := tcpcar.NewFabric(env)
			inbox := make(carrier.Inbox, 1)
			for _, o := range c.others {
				if _, err := fab.Dial(o[0], o[1], inbox); err != nil {
					t.Fatal(err)
				}
			}
			conn, err := fab.Dial(c.src, c.dst, inbox)
			if err != nil {
				t.Fatal(err)
			}
			free, at := sendTwo(t, conn, inbox, c.bytes)
			check(t, free, at, busyOf(tcpPath(t, env, c.src, c.dst)), c.free, c.at, c.busy)
		})
	}
}

func TestRouteGoldenUDP(t *testing.T) {
	// Each case sends 16 frames of 1000 bytes and a Last frame on the first
	// connection of a fresh fabric (the loss schedule is keyed by connection
	// id and sequence number). delivered has bit i set when frame i arrived;
	// a lost frame pays the back-end NIC only, and Last always arrives.
	cases := []struct {
		loss      float64
		contended bool // a second back-end node streams through the same I/O node
		delivered uint32
		free, at  int64 // of the Last frame
		busy      []int64
	}{
		{0, false, 0x1ffff, 8636000, 8636000, []int64{8636000, 320000, 45600}},
		{0.5, false, 0x17878, 8636000, 8636000, []int64{8636000, 160000, 22800}},
		{0.5, true, 0x17878, 8636000, 290194000, []int64{8636000, 288160000, 22800}},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("loss%v/contended=%v", c.loss, c.contended), func(t *testing.T) {
			env := newEnv(t)
			fab, err := tcpcar.NewUDPFabric(env, c.loss)
			if err != nil {
				t.Fatal(err)
			}
			inbox := make(carrier.Inbox, 1)
			conn, err := fab.Dial(be(1), bg(0), inbox)
			if err != nil {
				t.Fatal(err)
			}
			if c.contended {
				if _, err := fab.Dial(be(2), bg(1), inbox); err != nil {
					t.Fatal(err)
				}
			}
			var (
				delivered uint32
				free, at  int64
				ready     vtime.Time
			)
			for i := 0; i <= 16; i++ {
				fr := carrier.Frame{Source: "g", Payload: make([]byte, 1000), Ready: ready, Last: i == 16}
				if fr.Last {
					fr.Payload = nil
				}
				f, err := conn.Send(fr)
				if err != nil {
					t.Fatal(err)
				}
				ready, free = f, int64(f)
				select {
				case d := <-inbox:
					delivered |= 1 << i
					at = int64(d.At)
				default:
				}
			}
			if delivered != c.delivered {
				t.Errorf("delivered %#x, want %#x", delivered, c.delivered)
			}
			check(t, free, at, busyOf(tcpPath(t, env, be(1), bg(0))), c.free, c.at, c.busy)
		})
	}
}
