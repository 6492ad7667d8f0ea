// Package hw models the LOFAR hardware environment of the paper: an IBM
// BlueGene/L partition (3D torus of dual-CPU compute nodes grouped in psets
// of eight compute nodes plus one I/O node) and two Linux clusters (a
// front-end where users interact with SCSQ and a back-end that injects the
// sensor streams), connected by Gigabit Ethernet.
//
// The environment is simulated: every node owns virtual-time resources
// (CPU, communication co-processor, NIC, I/O-node forwarder) against which
// the stream carriers charge the cost model in costmodel.go. See DESIGN.md
// §2-3 for the substitution rationale and the calibration.
package hw

import (
	"cmp"
	"fmt"
	"sync"

	"scsq/internal/torus"
	"scsq/internal/vtime"
)

// ClusterName identifies one of the three clusters of Figure 1.
type ClusterName string

// The three clusters of the LOFAR environment.
const (
	FrontEnd ClusterName = "fe"
	BackEnd  ClusterName = "be"
	BlueGene ClusterName = "bg"
)

// Valid reports whether c names a known cluster.
func (c ClusterName) Valid() bool {
	switch c {
	case FrontEnd, BackEnd, BlueGene:
		return true
	}
	return false
}

// Node is a compute node with its virtual resources. BlueGene nodes have a
// communication co-processor (the second CPU of the dual-processor node,
// normally dedicated to communication); Linux nodes have a NIC.
type Node struct {
	Cluster ClusterName
	ID      int
	CPU     *vtime.Resource
	Coproc  *vtime.Resource // BlueGene only
	NIC     *vtime.Resource // fe/be only

	// Hop names the node's communication device as a waypoint of traced
	// frames ("coproc bg:3", "nic be:1"); FwdHop names a BlueGene
	// co-processor forwarding on behalf of other nodes ("fwd bg:3"). They
	// are formatted once here so that dialing and tracing format nothing.
	Hop, FwdHop string
}

// IONode is a BlueGene I/O node: it forwards TCP traffic between the
// outside world and the compute nodes of its pset over the tree network.
// I/O nodes are only used for communication and cannot run RPs.
type IONode struct {
	ID        int
	Forwarder *vtime.Resource
	Tree      *vtime.Resource

	// FwdHop and TreeHop name the two devices in frame traces
	// ("iofwd io:0", "tree io:0").
	FwdHop, TreeHop string
}

// Env is a simulated LOFAR hardware environment.
type Env struct {
	Cost  CostModel
	Torus *torus.Torus

	bg []*Node
	be []*Node
	fe []*Node
	io []*IONode

	psetSize int

	// kernel orders every grant the processes running on this hardware make
	// (vtime.Kernel). Its clock is the one timeline: Reset leaves it where
	// it stands.
	kernel vtime.Kernel

	// Contention multiplicities of the open streams — back-end→BlueGene
	// streams per back-end and I/O node, MPI producers per BlueGene node —
	// kept as counts so reading one costs the same however many streams the
	// epoch has opened.
	mu         sync.Mutex
	beStreams  []int // streams per back-end node
	ioStreams  []int // streams per I/O node
	distinctBe int   // back-end nodes with at least one stream
	producers  []int // MPI streams per destination BlueGene node
}

// Config configures NewLOFAR. Its zero value is the partition of the
// paper's experiments; each field left zero keeps its default.
type Config struct {
	// Torus is the BlueGene partition's torus dimensions (zero: 4×4×2, 32
	// compute nodes — with psets of eight, the four I/O nodes the paper's
	// experiments had available). A non-zero value must be whole: a zero
	// dimension beside non-zero ones is an error, not a default.
	Torus [3]int
	// PsetSize is the number of compute nodes per I/O node (zero: 8, as in
	// LOFAR's BlueGene).
	PsetSize int
	// BackEndNodes is the back-end cluster size (zero: 4, the paper's "four
	// nodes in the back-end cluster").
	BackEndNodes int
	// FrontEndNodes is the front-end cluster size (zero: 2).
	FrontEndNodes int
	// Cost is the cost model (zero: DefaultCostModel, the calibrated
	// constants).
	Cost CostModel
}

// Option configures NewLOFAR. A Config is one: each of its non-zero fields
// overrides what the options before it set.
type Option interface{ apply(*Config) }

func (c Config) apply(dst *Config) {
	dst.Torus = cmp.Or(c.Torus, dst.Torus)
	dst.PsetSize = cmp.Or(c.PsetSize, dst.PsetSize)
	dst.BackEndNodes = cmp.Or(c.BackEndNodes, dst.BackEndNodes)
	dst.FrontEndNodes = cmp.Or(c.FrontEndNodes, dst.FrontEndNodes)
	dst.Cost = cmp.Or(c.Cost, dst.Cost)
}

// NewLOFAR builds a simulated LOFAR environment.
func NewLOFAR(opts ...Option) (*Env, error) {
	var cfg Config
	for _, o := range opts {
		o.apply(&cfg)
	}
	cfg.Torus = cmp.Or(cfg.Torus, [3]int{4, 4, 2})
	cfg.PsetSize = cmp.Or(cfg.PsetSize, 8)
	cfg.BackEndNodes = cmp.Or(cfg.BackEndNodes, 4)
	cfg.FrontEndNodes = cmp.Or(cfg.FrontEndNodes, 2)
	cfg.Cost = cmp.Or(cfg.Cost, DefaultCostModel())
	if cfg.PsetSize <= 0 {
		return nil, fmt.Errorf("hw: pset size must be positive, got %d", cfg.PsetSize)
	}
	if cfg.BackEndNodes <= 0 || cfg.FrontEndNodes <= 0 {
		return nil, fmt.Errorf("hw: cluster sizes must be positive (be=%d fe=%d)", cfg.BackEndNodes, cfg.FrontEndNodes)
	}
	tor, err := torus.New(cfg.Torus[0], cfg.Torus[1], cfg.Torus[2])
	if err != nil {
		return nil, err
	}
	n := tor.Size()
	if n%cfg.PsetSize != 0 {
		return nil, fmt.Errorf("hw: torus size %d not divisible by pset size %d", n, cfg.PsetSize)
	}
	env := &Env{
		Cost:      cfg.Cost,
		Torus:     tor,
		psetSize:  cfg.PsetSize,
		beStreams: make([]int, cfg.BackEndNodes),
		ioStreams: make([]int, n/cfg.PsetSize),
		producers: make([]int, n),
	}
	for i := 0; i < n; i++ {
		env.bg = append(env.bg, newNode(BlueGene, i))
	}
	for i := 0; i < n/cfg.PsetSize; i++ {
		env.io = append(env.io, &IONode{
			ID:        i,
			Forwarder: vtime.NewResource(fmt.Sprintf("io%d.fwd", i)),
			Tree:      vtime.NewResource(fmt.Sprintf("io%d.tree", i)),
			FwdHop:    fmt.Sprintf("iofwd io:%d", i),
			TreeHop:   fmt.Sprintf("tree io:%d", i),
		})
	}
	for i := 0; i < cfg.BackEndNodes; i++ {
		env.be = append(env.be, newNode(BackEnd, i))
	}
	for i := 0; i < cfg.FrontEndNodes; i++ {
		env.fe = append(env.fe, newNode(FrontEnd, i))
	}
	return env, nil
}

// newNode builds node id of cluster c with its resources ("bg3.coproc",
// "be1.nic") and hop labels.
func newNode(c ClusterName, id int) *Node {
	n := &Node{Cluster: c, ID: id, CPU: vtime.NewResource(fmt.Sprintf("%s%d.cpu", c, id))}
	if c == BlueGene {
		n.Coproc = vtime.NewResource(fmt.Sprintf("bg%d.coproc", id))
		n.Hop, n.FwdHop = fmt.Sprintf("coproc bg:%d", id), fmt.Sprintf("fwd bg:%d", id)
	} else {
		n.NIC = vtime.NewResource(fmt.Sprintf("%s%d.nic", c, id))
		n.Hop = fmt.Sprintf("nic %s:%d", c, id)
	}
	return n
}

// ClusterSize returns the number of compute nodes in cluster c (0 for an
// unknown cluster).
func (e *Env) ClusterSize(c ClusterName) int {
	switch c {
	case BlueGene:
		return len(e.bg)
	case BackEnd:
		return len(e.be)
	case FrontEnd:
		return len(e.fe)
	}
	return 0
}

// Node returns the node with the given id in cluster c.
func (e *Env) Node(c ClusterName, id int) (*Node, error) {
	var nodes []*Node
	switch c {
	case BlueGene:
		nodes = e.bg
	case BackEnd:
		nodes = e.be
	case FrontEnd:
		nodes = e.fe
	default:
		return nil, fmt.Errorf("hw: unknown cluster %q", c)
	}
	if id < 0 || id >= len(nodes) {
		return nil, fmt.Errorf("hw: node %d out of range for cluster %q (size %d)", id, c, len(nodes))
	}
	return nodes[id], nil
}

// PsetCount returns the number of psets (= I/O nodes) in the BG partition.
func (e *Env) PsetCount() int { return len(e.io) }

// PsetSize returns the number of compute nodes per pset.
func (e *Env) PsetSize() int { return e.psetSize }

// PsetOf returns the pset index of BG compute node cn.
func (e *Env) PsetOf(cn int) (int, error) {
	if cn < 0 || cn >= len(e.bg) {
		return 0, fmt.Errorf("hw: bg node %d out of range (size %d)", cn, len(e.bg))
	}
	return cn / e.psetSize, nil
}

// IONodeFor returns the I/O node that serves BG compute node cn's pset.
func (e *Env) IONodeFor(cn int) (*IONode, error) {
	p, err := e.PsetOf(cn)
	if err != nil {
		return nil, err
	}
	return e.io[p], nil
}

// IONode returns I/O node p.
func (e *Env) IONode(p int) (*IONode, error) {
	if p < 0 || p >= len(e.io) {
		return nil, fmt.Errorf("hw: io node %d out of range (count %d)", p, len(e.io))
	}
	return e.io[p], nil
}

// NodesInPset returns the BG compute node ids belonging to pset p.
func (e *Env) NodesInPset(p int) ([]int, error) {
	if p < 0 || p >= len(e.io) {
		return nil, fmt.Errorf("hw: pset %d out of range (count %d)", p, len(e.io))
	}
	ids := make([]int, 0, e.psetSize)
	for i := p * e.psetSize; i < (p+1)*e.psetSize; i++ {
		ids = append(ids, i)
	}
	return ids, nil
}

// RegisterInbound records an open stream from back-end node beNode into the
// BlueGene through I/O node ioNode, so the carriers can model the
// partition-wide coordination penalty (distinct back-end peers) and
// per-I/O-node stream switching. A registration lasts until Reset: the
// virtual-time penalties must not depend on the wall-clock order in which
// producers happen to finish.
func (e *Env) RegisterInbound(beNode, ioNode int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.beStreams[beNode] == 0 {
		e.distinctBe++
	}
	e.beStreams[beNode]++
	e.ioStreams[ioNode]++
}

// DistinctBeNodes reports how many distinct back-end nodes have opened
// inbound streams into the BG partition since the last Reset.
func (e *Env) DistinctBeNodes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.distinctBe
}

// StreamsOnIO reports how many inbound streams opened since the last Reset
// I/O node p forwards (0 for an unknown I/O node).
func (e *Env) StreamsOnIO(p int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p < 0 || p >= len(e.ioStreams) {
		return 0
	}
	return e.ioStreams[p]
}

// RegisterProducer records an open MPI stream into BlueGene node dst, so the
// receiving co-processor's merge switching penalty can count its producers.
// Like RegisterInbound, a registration lasts until Reset.
func (e *Env) RegisterProducer(dst int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.producers[dst]++
}

// ProducersOn reports how many MPI streams into BlueGene node dst were opened
// since the last Reset (0 for an unknown node).
func (e *Env) ProducersOn(dst int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if dst < 0 || dst >= len(e.producers) {
		return 0
	}
	return e.producers[dst]
}

// Resources returns every virtual-time resource in the environment, in the
// deterministic order bg (CPU, coprocessor), be (CPU, NIC), fe (CPU, NIC),
// io (forwarder, tree). The soak harness audits these: after a run every
// resource's per-owner busy accounting must still sum to its total.
func (e *Env) Resources() []*vtime.Resource {
	var out []*vtime.Resource
	for _, n := range e.bg {
		out = append(out, n.CPU, n.Coproc)
	}
	for _, n := range e.be {
		out = append(out, n.CPU, n.NIC)
	}
	for _, n := range e.fe {
		out = append(out, n.CPU, n.NIC)
	}
	for _, n := range e.io {
		out = append(out, n.Forwarder, n.Tree)
	}
	return out
}

// Kernel returns the virtual-time kernel the processes on this hardware take
// their turns in.
func (e *Env) Kernel() *vtime.Kernel { return &e.kernel }

// Reset frees every resource and clears the stream counts. Use between
// experiment repetitions. The kernel's clock goes on: the next run starts
// where the last one ended, on devices nothing has reserved.
func (e *Env) Reset() {
	for _, n := range e.bg {
		n.CPU.Reset()
		n.Coproc.Reset()
	}
	for _, n := range e.be {
		n.CPU.Reset()
		n.NIC.Reset()
	}
	for _, n := range e.fe {
		n.CPU.Reset()
		n.NIC.Reset()
	}
	for _, n := range e.io {
		n.Forwarder.Reset()
		n.Tree.Reset()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	clear(e.beStreams)
	clear(e.ioStreams)
	clear(e.producers)
	e.distinctBe = 0
}
