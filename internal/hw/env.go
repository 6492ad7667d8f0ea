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

	// Contention multiplicities of the open back-end→BlueGene streams, kept
	// as counts so reading one costs the same however many streams the
	// epoch has opened.
	mu         sync.Mutex
	beStreams  []int // streams per back-end node
	ioStreams  []int // streams per I/O node
	distinctBe int   // back-end nodes with at least one stream
}

// Option configures NewLOFAR.
type Option interface{ apply(*config) }

type config struct {
	dimX, dimY, dimZ int
	psetSize         int
	beNodes          int
	feNodes          int
	cost             CostModel
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithTorusDims sets the BlueGene partition's torus dimensions. The default
// 4×4×2 partition has 32 compute nodes and — with the default pset size of
// eight — the four I/O nodes the paper's experiments had available.
func WithTorusDims(x, y, z int) Option {
	return optionFunc(func(c *config) { c.dimX, c.dimY, c.dimZ = x, y, z })
}

// WithPsetSize sets the number of compute nodes per I/O node (default 8,
// as in LOFAR's BlueGene).
func WithPsetSize(n int) Option {
	return optionFunc(func(c *config) { c.psetSize = n })
}

// WithBackEndNodes sets the back-end cluster size (default 4, matching the
// paper's "four nodes in the back-end cluster").
func WithBackEndNodes(n int) Option {
	return optionFunc(func(c *config) { c.beNodes = n })
}

// WithFrontEndNodes sets the front-end cluster size (default 2).
func WithFrontEndNodes(n int) Option {
	return optionFunc(func(c *config) { c.feNodes = n })
}

// WithCostModel overrides the calibrated cost constants.
func WithCostModel(m CostModel) Option {
	return optionFunc(func(c *config) { c.cost = m })
}

// NewLOFAR builds a simulated LOFAR environment.
func NewLOFAR(opts ...Option) (*Env, error) {
	cfg := config{
		dimX:     4,
		dimY:     4,
		dimZ:     2,
		psetSize: 8,
		beNodes:  4,
		feNodes:  2,
		cost:     DefaultCostModel(),
	}
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.psetSize <= 0 {
		return nil, fmt.Errorf("hw: pset size must be positive, got %d", cfg.psetSize)
	}
	if cfg.beNodes <= 0 || cfg.feNodes <= 0 {
		return nil, fmt.Errorf("hw: cluster sizes must be positive (be=%d fe=%d)", cfg.beNodes, cfg.feNodes)
	}
	tor, err := torus.New(cfg.dimX, cfg.dimY, cfg.dimZ)
	if err != nil {
		return nil, err
	}
	n := tor.Size()
	if n%cfg.psetSize != 0 {
		return nil, fmt.Errorf("hw: torus size %d not divisible by pset size %d", n, cfg.psetSize)
	}
	env := &Env{
		Cost:      cfg.cost,
		Torus:     tor,
		psetSize:  cfg.psetSize,
		beStreams: make([]int, cfg.beNodes),
		ioStreams: make([]int, n/cfg.psetSize),
	}
	for i := 0; i < n; i++ {
		env.bg = append(env.bg, newNode(BlueGene, i))
	}
	for i := 0; i < n/cfg.psetSize; i++ {
		env.io = append(env.io, &IONode{
			ID:        i,
			Forwarder: vtime.NewResource(fmt.Sprintf("io%d.fwd", i)),
			Tree:      vtime.NewResource(fmt.Sprintf("io%d.tree", i)),
			FwdHop:    fmt.Sprintf("iofwd io:%d", i),
			TreeHop:   fmt.Sprintf("tree io:%d", i),
		})
	}
	for i := 0; i < cfg.beNodes; i++ {
		env.be = append(env.be, newNode(BackEnd, i))
	}
	for i := 0; i < cfg.feNodes; i++ {
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

// SetFairSlice bounds single reservations on the environment's shared
// transport devices — I/O-node forwarders and trees, and Linux-cluster NICs
// — so concurrent queries' frames interleave on a contended device instead
// of serializing behind one tenant's transfer (see vtime.SetFairSlice).
// Compute resources (CPUs, co-processors) are left unsliced: they are
// per-node and, on the exclusive BlueGene, per-query anyway. Zero restores
// whole-reservation placement.
func (e *Env) SetFairSlice(d vtime.Duration) {
	for _, n := range e.be {
		n.NIC.SetFairSlice(d)
	}
	for _, n := range e.fe {
		n.NIC.SetFairSlice(d)
	}
	for _, n := range e.io {
		n.Forwarder.SetFairSlice(d)
		n.Tree.SetFairSlice(d)
	}
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

// Reset returns every resource in the environment to virtual time zero and
// clears the inbound-stream counts. Use between experiment repetitions.
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
	e.distinctBe = 0
}
