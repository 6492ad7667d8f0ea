package hw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"scsq/internal/vtime"
)

func defaultEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewLOFAR()
	if err != nil {
		t.Fatalf("NewLOFAR: %v", err)
	}
	return env
}

func TestDefaultEnvironmentMatchesPaper(t *testing.T) {
	env := defaultEnv(t)
	if got := env.ClusterSize(BlueGene); got != 32 {
		t.Errorf("BG nodes = %d, want 32", got)
	}
	// "In the current hardware configuration, we have only four I/O nodes
	// and four nodes in the back-end cluster."
	if got := env.PsetCount(); got != 4 {
		t.Errorf("I/O nodes = %d, want 4", got)
	}
	if got := env.ClusterSize(BackEnd); got != 4 {
		t.Errorf("back-end nodes = %d, want 4", got)
	}
	if got := env.PsetSize(); got != 8 {
		t.Errorf("pset size = %d, want 8 (paper: psets of 8 compute nodes and one I/O node)", got)
	}
	if got := env.ClusterSize("nope"); got != 0 {
		t.Errorf("unknown cluster size = %d, want 0", got)
	}
}

func TestNewLOFARValidation(t *testing.T) {
	// Zero is the default; only a negative size is invalid.
	if _, err := NewLOFAR(Config{PsetSize: -1}); err == nil {
		t.Error("pset size -1 should fail")
	}
	if _, err := NewLOFAR(Config{BackEndNodes: -1}); err == nil {
		t.Error("-1 back-end nodes should fail")
	}
	// A torus is defaulted whole or not at all.
	if _, err := NewLOFAR(Config{Torus: [3]int{0, 4, 2}}); err == nil {
		t.Error("bad torus dims should fail")
	}
	// Torus size must divide into whole psets.
	if _, err := NewLOFAR(Config{Torus: [3]int{3, 3, 1}, PsetSize: 8}); err == nil {
		t.Error("9 nodes / psets of 8 should fail")
	}
}

func TestNodeAccess(t *testing.T) {
	env := defaultEnv(t)
	n, err := env.Node(BlueGene, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n.CPU == nil || n.Coproc == nil {
		t.Error("BG node must have CPU and co-processor resources")
	}
	if n.NIC != nil {
		t.Error("BG compute nodes have no NIC (I/O nodes do the TCP)")
	}
	be, err := env.Node(BackEnd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if be.NIC == nil || be.CPU == nil {
		t.Error("back-end node must have CPU and NIC")
	}
	if be.Coproc != nil {
		t.Error("Linux nodes have no communication co-processor")
	}
	if _, err := env.Node(BlueGene, 32); err == nil {
		t.Error("out-of-range node should fail")
	}
	if _, err := env.Node("x", 0); err == nil {
		t.Error("unknown cluster should fail")
	}
}

func TestPsetMapping(t *testing.T) {
	env := defaultEnv(t)
	for cn := 0; cn < 32; cn++ {
		p, err := env.PsetOf(cn)
		if err != nil {
			t.Fatal(err)
		}
		if want := cn / 8; p != want {
			t.Errorf("PsetOf(%d) = %d, want %d", cn, p, want)
		}
		ion, err := env.IONodeFor(cn)
		if err != nil {
			t.Fatal(err)
		}
		if ion.ID != p {
			t.Errorf("IONodeFor(%d).ID = %d, want %d", cn, ion.ID, p)
		}
	}
	if _, err := env.PsetOf(32); err == nil {
		t.Error("PsetOf(32) should fail")
	}
	nodes, err := env.NodesInPset(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 8 || nodes[0] != 8 || nodes[7] != 15 {
		t.Errorf("NodesInPset(1) = %v, want 8..15", nodes)
	}
	if _, err := env.NodesInPset(4); err == nil {
		t.Error("NodesInPset(4) should fail")
	}
	if _, err := env.IONode(4); err == nil {
		t.Error("IONode(4) should fail")
	}
}

func TestInboundRegistry(t *testing.T) {
	env := defaultEnv(t)
	if got := env.DistinctBeNodes(); got != 0 {
		t.Errorf("initial distinct be nodes = %d, want 0", got)
	}
	if got := env.StreamsOnIO(0); got != 0 {
		t.Errorf("initial streams on io0 = %d, want 0", got)
	}
	env.RegisterInbound(1, 0)
	if got := env.StreamsOnIO(0); got != 1 {
		t.Errorf("streams on io0 = %d, want 1", got)
	}
	env.RegisterInbound(1, 0) // a re-registered node is one distinct peer
	env.RegisterInbound(2, 1)
	if got := env.DistinctBeNodes(); got != 2 {
		t.Errorf("distinct be nodes = %d, want 2", got)
	}
	if got := env.StreamsOnIO(0); got != 2 {
		t.Errorf("streams on io0 = %d, want 2", got)
	}
	if got := env.StreamsOnIO(1); got != 1 {
		t.Errorf("streams on io1 = %d, want 1", got)
	}
	if got := env.StreamsOnIO(-1) + env.StreamsOnIO(env.PsetCount()); got != 0 {
		t.Errorf("streams on unknown io nodes = %d, want 0", got)
	}
	env.Reset()
	if got := env.DistinctBeNodes() + env.StreamsOnIO(0) + env.StreamsOnIO(1); got != 0 {
		t.Errorf("after reset, multiplicities sum to %d, want 0", got)
	}
}

// TestInboundCountersMatchRecount drives random RegisterInbound/Reset
// sequences and checks the O(1) counters against a brute-force recount of
// the registration log after every step.
func TestInboundCountersMatchRecount(t *testing.T) {
	env := defaultEnv(t)
	nBE, nIO := env.ClusterSize(BackEnd), env.PsetCount()
	type reg struct{ be, io int }
	r := rand.New(rand.NewSource(14))
	var log []reg
	for step := 0; step < 5000; step++ {
		if r.Intn(200) == 0 {
			env.Reset()
			log = log[:0]
		} else {
			// Skewed draws keep some I/O nodes at 0 and 1 streams while
			// others saturate, and re-register the same back-end node often.
			g := reg{be: r.Intn(1 + r.Intn(nBE)), io: r.Intn(1 + r.Intn(nIO))}
			env.RegisterInbound(g.be, g.io)
			log = append(log, g)
		}
		peers := make(map[int]bool)
		onIO := make([]int, nIO)
		for _, g := range log {
			peers[g.be] = true
			onIO[g.io]++
		}
		if got := env.DistinctBeNodes(); got != len(peers) {
			t.Fatalf("step %d: DistinctBeNodes = %d, recount %d", step, got, len(peers))
		}
		for p, want := range onIO {
			if got := env.StreamsOnIO(p); got != want {
				t.Fatalf("step %d: StreamsOnIO(%d) = %d, recount %d", step, p, got, want)
			}
		}
	}
}

func TestResetRewindsResources(t *testing.T) {
	env := defaultEnv(t)
	n, err := env.Node(BlueGene, 0)
	if err != nil {
		t.Fatal(err)
	}
	n.CPU.UseAs("q1", 0, 100)
	n.Coproc.UseAs("q1", 0, 100)
	ion, err := env.IONode(0)
	if err != nil {
		t.Fatal(err)
	}
	ion.Forwarder.UseAs("q1", 0, 100)
	env.Reset()
	if n.CPU.BusyTime() != 0 || n.Coproc.BusyTime() != 0 || ion.Forwarder.BusyTime() != 0 {
		t.Error("Reset must rewind every resource")
	}
}

func TestCacheFactor(t *testing.T) {
	m := DefaultCostModel()
	if got := m.CacheFactor(100); got != 1 {
		t.Errorf("CacheFactor(100) = %v, want 1 (at or below the torus packet)", got)
	}
	if got := m.CacheFactor(1024); got != 1 {
		t.Errorf("CacheFactor(1024) = %v, want 1", got)
	}
	two := m.CacheFactor(2048)
	if want := 1 + m.CachePenalty; math.Abs(two-want) > 1e-12 {
		t.Errorf("CacheFactor(2048) = %v, want %v", two, want)
	}
	// Monotone in buffer size.
	prev := 0.0
	for _, s := range []int{1024, 2048, 10_000, 100_000, 1 << 20} {
		cur := m.CacheFactor(s)
		if cur < prev {
			t.Errorf("CacheFactor not monotone at %d: %v < %v", s, cur, prev)
		}
		prev = cur
	}
}

func TestPackets(t *testing.T) {
	m := DefaultCostModel()
	tests := []struct {
		bytes, want int
	}{
		{0, 1}, {1, 1}, {1024, 1}, {1025, 2}, {2048, 2}, {3000, 3},
	}
	for _, tt := range tests {
		if got := m.Packets(tt.bytes); got != tt.want {
			t.Errorf("Packets(%d) = %d, want %d", tt.bytes, got, tt.want)
		}
	}
}

// TestCacheFactorProperty: the factor is ≥1 and grows by exactly
// CachePenalty per doubling.
func TestCacheFactorProperty(t *testing.T) {
	m := DefaultCostModel()
	f := func(raw uint32) bool {
		s := int(raw%(1<<22)) + 1
		cf := m.CacheFactor(s)
		if cf < 1 {
			return false
		}
		cf2 := m.CacheFactor(2 * s)
		if s >= m.TorusPacketBytes {
			return math.Abs((cf2-cf)-m.CachePenalty) < 1e-9
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterNameValid(t *testing.T) {
	for _, c := range []ClusterName{FrontEnd, BackEnd, BlueGene} {
		if !c.Valid() {
			t.Errorf("%q should be valid", c)
		}
	}
	if ClusterName("xx").Valid() {
		t.Error("'xx' should be invalid")
	}
}

func TestResourceNaming(t *testing.T) {
	env := defaultEnv(t)
	n, err := env.Node(BlueGene, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n.CPU.Name() != "bg3.cpu" {
		t.Errorf("cpu name = %q", n.CPU.Name())
	}
	var r vtime.Resource
	if r.Name() != "" {
		t.Errorf("zero resource name = %q, want empty", r.Name())
	}
}
