// Package chaos provides seeded, deterministic fault injection for the SCSQ
// engine. The paper's coordinators own node placement on a 768-node
// BlueGene partition (§2.2); at that scale late frames and
// whole-node crashes are the steady state, not the exception. An
// Injector is consulted by the carriers (mpicar, and tcpcar with its UDP
// variant) on every dial and every frame send, and decides — purely from
// the seed and the (source, destination, sequence) coordinates of the
// event — whether to inject a fault. The same seed therefore reproduces the same
// fault schedule run after run, which is what makes chaos tests assertable:
// a killed node is killed at the same frame of the same stream every time.
//
// Faults come in two families. The rate fault (added latency) fires
// per-event from a hash of the seed and the event coordinates. Crash
// schedules (CrashAfterSends, CrashAtVTime) kill a whole compute node at a
// deterministic point of its own traffic; a dead node refuses dials, fails
// every send touching it, and is reported to crash listeners so the engine
// can mark it dead in the compute node database and kill its resident RPs.
// Nothing revives a node: the sessions on it fail. A lost frame is UDP's
// (tcpcar), not a fault of this package.
package chaos

import (
	"fmt"
	"hash/fnv"
	"sync"

	"scsq/internal/carrier"
	"scsq/internal/hw"
	"scsq/internal/metrics"
	"scsq/internal/vtime"
)

// NodeRef names one compute node of the environment.
type NodeRef = carrier.NodeRef

// Verdict is the injector's decision about one frame send.
type Verdict = carrier.Verdict

var _ carrier.Faults = (*Injector)(nil)

// Injector is a deterministic fault source. A nil *Injector is valid and
// injects nothing, so carriers consult it unconditionally. All methods are
// safe for concurrent use.
type Injector struct {
	seed int64

	delayRate float64
	maxDelay  vtime.Duration

	mu              sync.Mutex
	dead            map[NodeRef]bool
	crashAtV        map[NodeRef]vtime.Time
	crashAfterSends map[NodeRef]int
	sends           map[NodeRef]int
	listeners       []func(NodeRef)

	// Per-fault-kind injection counters ("chaos.<kind>"): faults used to be
	// injected silently, which made chaos-test failures hard to diagnose.
	// Handles are nil-safe no-ops until SetMetrics installs a registry.
	cDialDead *metrics.Counter
	cSendDead *metrics.Counter
	cCrash    *metrics.Counter
	cDelay    *metrics.Counter
}

// Option configures an Injector.
type Option func(*Injector)

// DelayRate adds up to maxDelay of virtual delivery latency to a fraction p
// of frames.
func DelayRate(p float64, maxDelay vtime.Duration) Option {
	return func(i *Injector) {
		i.delayRate = p
		i.maxDelay = maxDelay
	}
}

// CrashAfterSends schedules node (cluster, node) to crash immediately after
// its n-th outbound frame. With one RP per BlueGene node this kills the
// resident RP at a deterministic point of its stream.
func CrashAfterSends(cluster hw.ClusterName, node, n int) Option {
	return func(i *Injector) { i.crashAfterSends[NodeRef{Cluster: cluster, Node: node}] = n }
}

// CrashAtVTime schedules node (cluster, node) to crash at the first frame
// it touches whose ready time is at or after t. Ready times are read on the
// engine's one timeline, the kernel's clock, which Reset does not rewind: t
// counts from the engine's first session, not from the one that crashes.
func CrashAtVTime(cluster hw.ClusterName, node int, t vtime.Time) Option {
	return func(i *Injector) { i.crashAtV[NodeRef{Cluster: cluster, Node: node}] = t }
}

// New returns an injector seeded with seed. The seed fully determines every
// rate-based fault decision.
func New(seed int64, opts ...Option) *Injector {
	i := &Injector{
		seed:            seed,
		dead:            make(map[NodeRef]bool),
		crashAtV:        make(map[NodeRef]vtime.Time),
		crashAfterSends: make(map[NodeRef]int),
		sends:           make(map[NodeRef]int),
	}
	for _, o := range opts {
		o(i)
	}
	return i
}

// SetMetrics exports every injected fault as a "chaos.<kind>" counter in
// reg. It must be called before the injector sees traffic (the engine wires
// it at construction).
func (i *Injector) SetMetrics(reg *metrics.Registry) {
	if i == nil || reg == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.cDialDead = reg.Counter("chaos.dial_dead")
	i.cSendDead = reg.Counter("chaos.send_dead")
	i.cCrash = reg.Counter("chaos.crash")
	i.cDelay = reg.Counter("chaos.delay")
}

// OnCrash registers a listener invoked (once per node, outside the
// injector's lock) when a node transitions to dead — whether by schedule or
// by KillNode.
func (i *Injector) OnCrash(fn func(NodeRef)) {
	if i == nil || fn == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.listeners = append(i.listeners, fn)
}

// KillNode marks a node dead immediately and notifies crash listeners.
// Killing a dead node is a no-op.
func (i *Injector) KillNode(cluster hw.ClusterName, node int) {
	if i == nil {
		return
	}
	ref := NodeRef{Cluster: cluster, Node: node}
	i.mu.Lock()
	already := i.dead[ref]
	if !already {
		i.dead[ref] = true
		i.cCrash.Inc()
	}
	listeners := i.snapshotListenersLocked()
	i.mu.Unlock()
	if already {
		return
	}
	for _, fn := range listeners {
		fn(ref)
	}
}

// Faults returns i as a link's fault source: nil, which a link never
// consults, for a nil injector.
func (i *Injector) Faults() carrier.Faults {
	if i == nil {
		return nil
	}
	return i
}

// Dial decides the fate of one dial from src to dst: nil (proceed), or a
// wrapped carrier.ErrNodeDown when either endpoint has crashed.
func (i *Injector) Dial(src, dst NodeRef) error {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.dead[src] || i.dead[dst] {
		i.cDialDead.Inc()
		return fmt.Errorf("chaos: dial %s->%s: %w", src, dst, carrier.ErrNodeDown)
	}
	return nil
}

// Hash salts keep the per-fault decision streams independent. A retired
// fault's salt is not reused, so the others keep their streams: 1 was the
// dial rate's, 2 the reset's, 3 the drop rate's, 4 and 7 byte corruption's.
const (
	saltDelay    = 5
	saltDelayLen = 6
)

// OnSend decides the fate of frame seq from src to dst, ready at the given
// virtual time. It advances crash schedules (firing listeners when a node
// dies), then applies rate faults. Final (Last) frames are exempt from rate
// faults — the engine's termination protocol runs over the reliable control
// channel the paper's RPs maintain — but not from dead nodes: a crashed
// node sends nothing.
func (i *Injector) OnSend(src, dst NodeRef, seq uint64, ready vtime.Time, last bool) Verdict {
	var v Verdict
	if i == nil {
		return v
	}

	var crashed []NodeRef
	i.mu.Lock()
	i.sends[src]++
	if n, ok := i.crashAfterSends[src]; ok && !i.dead[src] && i.sends[src] > n {
		i.dead[src] = true
		crashed = append(crashed, src)
	}
	for _, ref := range [2]NodeRef{src, dst} {
		if t, ok := i.crashAtV[ref]; ok && !i.dead[ref] && ready >= t {
			i.dead[ref] = true
			crashed = append(crashed, ref)
		}
	}
	i.cCrash.Add(int64(len(crashed)))
	deadSrc, deadDst := i.dead[src], i.dead[dst]
	listeners := i.snapshotListenersLocked()
	cSendDead, cDelay := i.cSendDead, i.cDelay
	i.mu.Unlock()

	for _, ref := range crashed {
		for _, fn := range listeners {
			fn(ref)
		}
	}
	if deadSrc || deadDst {
		ref := src
		if !deadSrc {
			ref = dst
		}
		cSendDead.Inc()
		v.Err = fmt.Errorf("chaos: send %s->%s seq %d: node %s crashed: %w", src, dst, seq, ref, carrier.ErrNodeDown)
		return v
	}
	if last {
		return v
	}

	key := src.String() + ">" + dst.String()
	if i.delayRate > 0 && i.maxDelay > 0 && i.chance(saltDelay, key, seq) < i.delayRate {
		cDelay.Inc()
		v.Delay = vtime.Duration(i.hash(saltDelayLen, key, seq) % uint64(i.maxDelay))
	}
	return v
}

// snapshotListenersLocked copies the listener slice so it can be invoked
// outside the injector's lock. Caller holds mu.
func (i *Injector) snapshotListenersLocked() []func(NodeRef) {
	out := make([]func(NodeRef), len(i.listeners))
	copy(out, i.listeners)
	return out
}

// hash maps (seed, salt, key, seq) to a uniform uint64.
func (i *Injector) hash(salt int, key string, seq uint64) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for b := 0; b < 8; b++ {
		buf[b] = byte(uint64(i.seed) >> (8 * b))
		buf[8+b] = byte(uint64(salt) >> (8 * b))
		buf[16+b] = byte(seq >> (8 * b))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(key))
	return h.Sum64()
}

// chance maps (seed, salt, key, seq) to a uniform float64 in [0, 1).
func (i *Injector) chance(salt int, key string, seq uint64) float64 {
	return float64(i.hash(salt, key, seq)>>11) / float64(1<<53)
}
