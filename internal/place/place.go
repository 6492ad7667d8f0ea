// Package place is the cost-model placement planner for concurrent queries.
//
// Admission historically placed every stream process greedily: the next
// node of the query's allocation sequence (or the naive next-available
// scan) with no regard for what the other live sessions already occupy.
// On the BlueGene partition that packs co-running tenants into the same
// pset, so all their inbound streams funnel through one I/O-node forwarder
// — the contention the mt figure measures (92.4 Mbps aggregate at k=2
// against ~127 Mbps for a single query). This is the multi-application
// in-network stream placement problem of Benoit et al. (arXiv:0903.0710);
// the planner applies the greedy heuristics of Eidenbenz & Locher
// (arXiv:1601.06060) to it, scoring candidates with the same calibrated
// cost model the simulator charges (internal/hw.CostModel, internal/torus).
//
// The planner never invents placements: it only reorders (and filters the
// dead nodes out of) the candidate set the query's allocation sequence
// already allows — the full cluster for a naive placement. Admissibility is
// therefore inherited from the sequence, and lease acquisition and plan
// build proceed through the unchanged cndb/coordinator path, walking the
// planner's order instead of the sequence's. When the planner finds no
// admissible candidate it reports a fallback and admission keeps today's
// sequence order. With no planner installed, no code path changes at all:
// schedules are bit-identical to the planner-less engine.
//
// Scoring estimates the marginal virtual cost per byte a stream through the
// candidate node would pay, in the cost model's own units:
//
//   - pset I/O forwarder sharing: IOByte per foreign lease in the
//     candidate's pset — the dominant term; every tenant sharing a pset
//     serializes on one ciod forwarder (~400 Mbps).
//   - torus locality: PacketCost/TorusPacketBytes per hop between the
//     candidate and the session's nearest already-placed node, plus the
//     FwdFactor-weighted share for each foreign-leased co-processor the
//     route crosses.
//   - shared Linux clusters: NIC serialization (BeNICByte/FENICByte) per
//     co-resident RP on the candidate.
//
// The one objective, AggregateThroughput, greedily minimizes the summed cost
// of the batch with lookahead: each slot is scored with the previous slots'
// picks counted as occupied and owned, so a bag placement spreads the way the
// whole batch wants, not the way slot one wants. All ties break
// deterministically toward the lowest node id, keeping plans a pure function
// of the admission-time snapshot — the determinism contract of DESIGN.md §9.
package place

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"scsq/internal/cndb"
	"scsq/internal/hw"
	"scsq/internal/torus"
)

// Objective names what the planner optimizes.
type Objective int

// AggregateThroughput maximizes estimated system throughput: greedy minimal
// summed per-byte cost with lookahead across the whole batch.
const AggregateThroughput Objective = iota

// String names the objective as sys_placements reports it.
func (o Objective) String() string { return "aggregate" }

// Config parameterizes a Planner. The zero value is the planner.
type Config struct {
	// Objective is the optimization target.
	Objective Objective
}

// Decision records one planning call, as exposed by sys_placements.
type Decision struct {
	// ID is the monotone decision number (1-based).
	ID int
	// Owner is the query id the placement was planned for.
	Owner string
	// Cluster is the target cluster.
	Cluster string
	// Batch is how many placements the request covers (spv bag size).
	Batch int
	// Objective is the objective the planner ran.
	Objective Objective
	// Chosen is the planned node order for the batch slots (empty on
	// fallback).
	Chosen []int
	// Score is the summed estimated per-byte cost of the chosen slots in
	// cost-model units (virtual ns/B; lower is better).
	Score float64
	// Considered is the number of admissible candidates scored.
	Considered int
	// Fallback reports that the planner yielded nothing admissible and
	// admission kept the original sequence order.
	Fallback bool
}

// ChosenString renders the chosen node list as "a,b,c" for the catalog row.
func (d Decision) ChosenString() string {
	parts := make([]string, len(d.Chosen))
	for i, n := range d.Chosen {
		parts[i] = fmt.Sprintf("%d", n)
	}
	return strings.Join(parts, ",")
}

// maxDecisions bounds the retained decision log; older entries are dropped
// (sys_placements is an observability window, not an audit trail).
const maxDecisions = 512

// Planner scores candidate nodes for incoming placements against the node
// sets already leased to live sessions. It is safe for concurrent use: every
// planning call snapshots the cluster database under its own locks, and the
// calls take turns at the planner's scratch.
type Planner struct {
	env *hw.Env
	dbs map[hw.ClusterName]*cndb.DB
	cfg Config

	mu        sync.Mutex // held for a whole planning call
	seq       int
	decisions []Decision

	// A planning call's working storage, kept between calls: they run ten to
	// a session, under the engine's build lock.
	view       view
	loads      []cndb.NodeLoad
	leases     []cndb.Lease
	admissible []int
	seen       []bool
	keys       []scoreKey
	cost       []float64
}

// New builds a planner over the environment and the per-cluster compute
// node databases admission leases from.
func New(env *hw.Env, dbs map[hw.ClusterName]*cndb.DB, cfg Config) *Planner {
	return &Planner{env: env, dbs: dbs, cfg: cfg}
}

// Decisions returns the retained decision log, oldest first.
func (p *Planner) Decisions() []Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Decision(nil), p.decisions...)
}

// record appends one decision under the log cap. p.mu must be held.
func (p *Planner) record(d Decision) {
	p.seq++
	d.ID = p.seq
	p.decisions = append(p.decisions, d)
	if len(p.decisions) > maxDecisions {
		p.decisions = p.decisions[len(p.decisions)-maxDecisions:]
	}
}

// PlanPlacement implements core's PlacementPlanner hook: it returns the
// node order admission should probe for a request by owner of batch
// placements on cluster c, constrained to candidates (nil means the whole
// cluster, the naive case). The order contains every admissible candidate —
// the planned batch picks first, the rest ranked behind them — so lease
// acquisition still has a full cycle to probe if the cluster moved between
// planning and probing. ok=false means nothing was admissible and the
// caller must fall back to the original sequence order.
func (p *Planner) PlanPlacement(owner string, c hw.ClusterName, candidates []int, batch int) ([]int, bool) {
	db := p.dbs[c]
	if db == nil {
		return nil, false
	}
	if batch < 1 {
		batch = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.snapshot(owner, db)
	admissible := p.admit(v, candidates)
	if len(admissible) == 0 {
		p.record(Decision{Owner: owner, Cluster: string(c), Batch: batch,
			Objective: p.cfg.Objective, Fallback: true})
		return nil, false
	}

	simSlots := min(batch, len(admissible))

	// Planning must stay cheap in real time: admission interleaving with
	// already-running sessions is wall-clock-sensitive, and a slow planner
	// serializes the very batch it is trying to spread. Bulk scoring is
	// allocation-free (HopCount arithmetic, keys cached outside the sort
	// comparator); only the refineWidth best candidates of each slot pay the
	// route walk for the foreign-congestion term.
	considered := len(admissible)
	order := make([]int, 0, considered) // the caller's: the only slice built per call
	score := 0.0
	remaining := admissible
	p.keys = slices.Grow(p.keys[:0], len(remaining))
	keys := p.keys[:len(remaining)]
	top := make([]int, 0, refineWidth)
	for slot := 0; slot < simSlots; slot++ {
		// One bulk-scoring pass keeping the refineWidth best candidates in a
		// small sorted insertion buffer — no full sort per slot.
		top = top[:0]
		for i := range remaining {
			keys[i] = p.scoreKey(v, remaining[i])
			if len(top) == refineWidth {
				worst := top[len(top)-1]
				if !keys[i].less(keys[worst], remaining[i], remaining[worst]) {
					continue
				}
				top = top[:len(top)-1]
			}
			pos := len(top)
			for pos > 0 && keys[i].less(keys[top[pos-1]], remaining[i], remaining[top[pos-1]]) {
				pos--
			}
			top = append(top, 0)
			copy(top[pos+1:], top[pos:])
			top[pos] = i
		}
		best := -1
		var bestKey scoreKey
		for _, i := range top {
			k := p.refine(v, remaining[i], keys[i])
			if best < 0 || k.less(bestKey, remaining[i], remaining[best]) {
				best, bestKey = i, k
			}
		}
		score += bestKey.cost
		order = append(order, remaining[best])
		v.take(remaining[best])
		remaining = slices.Delete(remaining, best, best+1)
		keys = keys[:len(remaining)]
	}
	// Rank the tail under the final simulated state so probing past the
	// planned picks still prefers the cheapest remaining nodes.
	cost := resized(p.cost, v.size) // by node id
	p.cost = cost
	for _, n := range remaining {
		cost[n] = p.scoreKey(v, n).cost
	}
	slices.SortFunc(remaining, func(a, b int) int {
		return cmp.Or(cmp.Compare(cost[a], cost[b]), a-b)
	})
	order = append(order, remaining...)

	chosen := order
	if len(chosen) > batch {
		chosen = chosen[:batch]
	}
	p.record(Decision{Owner: owner, Cluster: string(c), Batch: batch,
		Objective: p.cfg.Objective, Chosen: append([]int(nil), chosen...),
		Score: score, Considered: considered})
	return order, true
}

// scoreKey is one candidate's cached ordering key: its estimated per-byte
// cost (also what Decision.Score sums), node id as the caller-supplied tie
// break.
type scoreKey struct {
	cost float64
}

func (k scoreKey) less(o scoreKey, n, on int) bool {
	if k.cost != o.cost {
		return k.cost < o.cost
	}
	return n < on
}

// refineWidth is how many of a slot's best base-scored candidates get the
// exact foreign-congestion refinement. Wide enough to cover every plausible
// winner (a 6144-node cluster rarely has 32 distinct-cost front runners),
// narrow enough that planning stays microseconds, not milliseconds.
const refineWidth = 32

// refine adds the FwdFactor-weighted congestion share for the foreign
// co-processors on the candidate's route to the session's nearest placed
// node — the one scoring term that walks a route, paid only for the top
// candidates of a slot.
func (p *Planner) refine(v *view, n int, base scoreKey) scoreKey {
	if !v.bg || len(v.ownNodes) == 0 {
		return base
	}
	own, _ := v.nearestOwn(n)
	busy := v.busyOn(own, n)
	if busy == 0 {
		return base
	}
	m := p.env.Cost
	base.cost += float64(m.PacketCost) / float64(m.TorusPacketBytes) * m.FwdFactor * float64(busy)
	return base
}

// scoreKey estimates the marginal per-byte cost of candidate n under the
// view's current simulated state.
func (p *Planner) scoreKey(v *view, n int) scoreKey {
	m := p.env.Cost
	if v.bg {
		// Forwarder sharing: every foreign lease in the pset serializes its
		// bytes through the same I/O node ciod.
		cost := m.IOByte * float64(v.foreignPset[n/v.psetSize])
		if len(v.ownNodes) > 0 {
			_, hops := v.nearestOwn(n)
			perByteHop := float64(m.PacketCost) / float64(m.TorusPacketBytes)
			cost += perByteHop * float64(hops)
		}
		return scoreKey{cost}
	}
	nic := m.BeNICByte
	if v.cluster == hw.FrontEnd {
		nic = m.FENICByte
	}
	return scoreKey{nic * float64(v.rps[n]+v.simOwn[n])}
}

// view is the planner's per-call snapshot of one cluster, plus the
// simulated effect of the batch slots already planned. Its slices are the
// planner's scratch, resized and cleared by snapshot.
type view struct {
	cluster   hw.ClusterName
	bg        bool
	exclusive bool
	size      int
	dead      []bool
	rps       []int // total RPs per node (leased, any owner)
	simOwn    []int // planned-but-not-yet-leased picks per node
	taken     []bool

	// BlueGene geometry, aggregated per pset and per session.
	psetSize    int
	tor         *torus.Torus
	foreignNode []bool // node leased by at least one other owner
	foreignPset []int  // foreign lease count per pset (BG only)
	ownNodes    []int
	route       []int // busyOn's scratch: the route being walked
}

// resized returns s with length n, every element zero, reusing its storage.
func resized[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// snapshot captures the cluster state the plan is a pure function of. The
// node states and the lease table are read under one acquisition of the
// database's lock; admission is serialized by the engine's build lock, so the
// snapshot is stable for the whole planning call.
func (p *Planner) snapshot(owner string, db *cndb.DB) *view {
	v := &p.view
	n := db.Size()
	*v = view{
		cluster:     db.Cluster(),
		bg:          db.Cluster() == hw.BlueGene,
		exclusive:   db.Exclusive(),
		size:        n,
		dead:        resized(v.dead, n),
		rps:         resized(v.rps, n),
		simOwn:      resized(v.simOwn, n),
		taken:       resized(v.taken, n),
		psetSize:    p.env.PsetSize(),
		tor:         p.env.Torus,
		foreignNode: resized(v.foreignNode, n),
		foreignPset: v.foreignPset[:0],
		ownNodes:    v.ownNodes[:0],
		route:       v.route,
	}
	if v.bg && v.psetSize > 0 {
		v.foreignPset = resized(v.foreignPset, (n+v.psetSize-1)/v.psetSize)
	}
	p.loads, p.leases = db.AppendState(p.loads[:0], p.leases[:0])
	for _, st := range p.loads {
		v.dead[st.Node] = st.Dead
		v.rps[st.Node] = st.RPs
	}
	for _, l := range p.leases {
		if l.Node < 0 || l.Node >= v.size {
			continue
		}
		if l.Owner == owner {
			v.ownNodes = append(v.ownNodes, l.Node)
			continue
		}
		v.foreignNode[l.Node] = true
		if v.bg {
			v.foreignPset[l.Node/v.psetSize]++
		}
	}
	slices.Sort(v.ownNodes)
	return v
}

// admit filters and dedups the candidate set: in range, alive, and — on
// exclusive clusters — not already occupied or planned. nil candidates mean
// the whole cluster in id order (the naive placement's search space).
func (p *Planner) admit(v *view, candidates []int) []int {
	out := slices.Grow(p.admissible[:0], v.size)
	seen := resized(p.seen, v.size)
	p.seen = seen
	accept := func(n int) {
		if n < 0 || n >= v.size || seen[n] {
			return
		}
		seen[n] = true
		if v.dead[n] || v.taken[n] {
			return
		}
		if v.exclusive && v.rps[n] > 0 {
			return
		}
		out = append(out, n)
	}
	if candidates == nil {
		for n := 0; n < v.size; n++ {
			accept(n)
		}
	} else {
		for _, n := range candidates {
			accept(n)
		}
	}
	p.admissible = out
	return out
}

// take commits a simulated pick: the node counts as owned (and occupied on
// exclusive clusters) for the remaining slots of the batch.
func (v *view) take(n int) {
	v.taken[n] = true
	v.simOwn[n]++
	v.ownNodes = append(v.ownNodes, n)
	slices.Sort(v.ownNodes)
}

// nearestOwn returns the session's already-placed node closest to candidate
// n and the hop distance to it. Nearest means fewest hops, ties to the
// lowest node id (ownNodes is sorted, so the first minimum wins). Uses
// torus.HopCount, so the whole scan is allocation-free.
func (v *view) nearestOwn(n int) (own, hops int) {
	own = -1
	if v.tor == nil {
		return own, 0
	}
	for _, o := range v.ownNodes {
		h, err := v.tor.HopCount(o, n)
		if err != nil {
			continue
		}
		if own < 0 || h < hops {
			own, hops = o, h
		}
	}
	return own, hops
}

// busyOn counts the foreign-leased co-processors on the route from own to
// candidate n — its intermediates, the destination excluded. This is the
// only scoring term that walks a route, so only refine pays for it; the
// route lands in the view's scratch slice, so the walk allocates nothing
// once the slice has grown to the longest route seen.
func (v *view) busyOn(own, n int) int {
	if own < 0 || v.tor == nil {
		return 0
	}
	route, err := v.tor.AppendRoute(v.route[:0], own, n)
	v.route = route
	if err != nil || len(route) == 0 {
		return 0
	}
	busy := 0
	for _, mid := range route[:len(route)-1] {
		if mid >= 0 && mid < v.size && v.foreignNode[mid] {
			busy++
		}
	}
	return busy
}
