// Package cndb implements the compute node database each cluster
// coordinator maintains (paper §2.2): the properties and status of the
// compute nodes in its cluster, and the node selection algorithm that
// starts a new RP on a suitable node.
//
// Node selection is either naive — "returning the next available node", the
// paper's default — or constrained by an allocation sequence: a stream of
// allowable compute nodes in preferred allocation order, produced by a node
// allocation query (explicit node ids, urr(), inPset(), psetrr()). The
// selection algorithm chooses the first available node in the sequence and
// fails if the sequence contains no available node.
package cndb

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"scsq/internal/hw"
)

// ErrNoAvailableNode is returned when an allocation sequence (or the whole
// cluster) contains no available node.
var ErrNoAvailableNode = errors.New("cndb: allocation sequence contains no available node")

// Sequence is an allocation sequence: a cyclic stream of candidate node ids
// in preferred order. A Sequence is stateful — consecutive selections
// against the same sequence continue where the previous one stopped, which
// is how spv() spreads a batch of stream processes round-robin.
//
// The cursor only ever moves when a selection actually grants a node:
// probing is side-effect-free, so a failed or aborted selection leaves the
// sequence exactly where it started and a retried admission re-probes from
// a stable offset instead of a drifting one.
type Sequence struct {
	mu  sync.Mutex
	ids []int
	pos int
}

// NewSequence builds an allocation sequence cycling over ids, which it keeps:
// the caller built them fresh and never writes them again. It returns an
// error for an empty id list.
func NewSequence(ids ...int) (*Sequence, error) {
	if len(ids) == 0 {
		return nil, errors.New("cndb: empty allocation sequence")
	}
	return &Sequence{ids: ids}, nil
}

// Reset makes s, which the caller owns, cycle over ids from the first.
func (s *Sequence) Reset(ids []int) { s.ids, s.pos = ids, 0 }

// IDs returns one full cycle of the sequence, which nobody may write.
func (s *Sequence) IDs() []int { return s.ids }

// DB is one cluster's compute node database. BlueGene compute nodes are
// exclusive (CNK runs a single process, so each RP needs a fresh node);
// Linux cluster nodes can host any number of RPs.
type DB struct {
	cluster   hw.ClusterName
	exclusive bool

	mu        sync.Mutex
	allocated map[int]int   // node id -> RP count
	leases    map[lease]int // (owner, node) -> RP count
	dead      map[int]bool
	size      int
	rr        int
}

// lease keys the lease table: one owner's reservations on one node.
type lease struct {
	owner string
	node  int
}

// Lease is one owner's reservation count on one node, as reported by AppendState.
type Lease struct {
	Owner string // query id ("" for anonymous single-query allocations)
	Node  int
	Count int
}

// New builds the CNDB for cluster c of environment env.
func New(env *hw.Env, c hw.ClusterName) (*DB, error) {
	n := env.ClusterSize(c)
	if n == 0 {
		return nil, fmt.Errorf("cndb: unknown or empty cluster %q", c)
	}
	return &DB{
		cluster:   c,
		exclusive: c == hw.BlueGene,
		allocated: make(map[int]int),
		leases:    make(map[lease]int),
		dead:      make(map[int]bool),
		size:      n,
	}, nil
}

// Cluster returns the cluster this database describes.
func (db *DB) Cluster() hw.ClusterName { return db.cluster }

// Size returns the number of compute nodes in the cluster.
func (db *DB) Size() int { return db.size }

// Exclusive reports whether nodes host at most one RP (BlueGene).
func (db *DB) Exclusive() bool { return db.exclusive }

// SelectFor allocates a node. With a nil sequence the naive algorithm is
// used: the next available node (for exclusive clusters) or round-robin (for
// shared clusters). With a sequence, the first available node in the
// sequence is chosen, consuming sequence positions; if a full cycle yields
// no available node, ErrNoAvailableNode is returned. The allocation is
// recorded as a lease held by owner (a query id). Leases are released by
// ReleaseFor and inspected via AppendState and LeaseCount; they are how the
// scheduler proves release-on-completion.
func (db *DB) SelectFor(owner string, seq *Sequence) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if seq == nil {
		return db.selectNaive(owner)
	}
	// Probe one full cycle against a snapshot of the cursor and commit the
	// cursor only together with a successful grant (both under seq.mu, after
	// db.mu — the only lock order used for this pair). A probe that fails —
	// a full cycle without an available node, or an out-of-range id aborting
	// mid-cycle — leaves the cursor untouched, so concurrent admissions
	// cannot strand a satisfiable sequence by displacing each other's
	// cursors, and the next probe starts from the same stable offset as the
	// failed one.
	seq.mu.Lock()
	defer seq.mu.Unlock()
	start := seq.pos
	for i := 0; i < len(seq.ids); i++ {
		j := (start + i) % len(seq.ids)
		id := seq.ids[j]
		if id < 0 || id >= db.size {
			return 0, fmt.Errorf("cndb: allocation sequence node %d out of range for cluster %q (size %d)", id, db.cluster, db.size)
		}
		if db.dead[id] || (db.exclusive && db.allocated[id] > 0) {
			continue
		}
		db.grant(owner, id)
		seq.pos = (j + 1) % len(seq.ids)
		return id, nil
	}
	return 0, fmt.Errorf("%w (cluster %q)", ErrNoAvailableNode, db.cluster)
}

func (db *DB) selectNaive(owner string) (int, error) {
	if db.exclusive {
		for id := 0; id < db.size; id++ {
			if db.allocated[id] == 0 && !db.dead[id] {
				db.grant(owner, id)
				return id, nil
			}
		}
		return 0, fmt.Errorf("%w (cluster %q)", ErrNoAvailableNode, db.cluster)
	}
	for i := 0; i < db.size; i++ {
		id := db.rr % db.size
		db.rr++
		if db.dead[id] {
			continue
		}
		db.grant(owner, id)
		return id, nil
	}
	return 0, fmt.Errorf("%w (cluster %q)", ErrNoAvailableNode, db.cluster)
}

// grant records an allocation and its lease. db.mu must be held.
func (db *DB) grant(owner string, id int) {
	db.allocated[id]++
	db.leases[lease{owner, id}]++
}

// ReleaseFor returns a node allocation held under the given owner's lease.
// Releasing a node that is not allocated is a no-op; releasing one the owner
// does not lease is a no-op on the lease table but still decrements the
// aggregate allocation count if positive.
func (db *DB) ReleaseFor(owner string, id int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.allocated[id] > 0 {
		db.allocated[id]--
		if db.allocated[id] == 0 {
			delete(db.allocated, id)
		}
	}
	if k := (lease{owner, id}); db.leases[k] > 1 {
		db.leases[k]--
	} else {
		delete(db.leases, k)
	}
}

// NodeState is one node's row in a NodeStates snapshot: its placement
// load, liveness, and the owners holding leases on it. It backs the
// sys_nodes system catalog table.
type NodeState struct {
	Node   int
	RPs    int      // RPs currently placed on the node
	Dead   bool     // marked failed by a crash (chaos)
	Owners []string // lease owners, sorted ("" = anonymous)
}

// NodeLoad is the placement load and liveness of one node that hosts RPs or
// is marked dead.
type NodeLoad struct {
	Node, RPs int
	Dead      bool
}

// AppendState appends the cluster's occupancy to the caller's slices, read
// under one acquisition of the database lock: a NodeLoad for every node that
// hosts RPs or is dead (a node not mentioned is idle and alive) and a Lease
// for every reservation, both in no particular order.
func (db *DB) AppendState(loads []NodeLoad, leases []Lease) ([]NodeLoad, []Lease) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for id, n := range db.allocated {
		loads = append(loads, NodeLoad{Node: id, RPs: n, Dead: db.dead[id]})
	}
	for id := range db.dead {
		if db.allocated[id] == 0 {
			loads = append(loads, NodeLoad{Node: id, Dead: true})
		}
	}
	for k, n := range db.leases {
		leases = append(leases, Lease{Owner: k.owner, Node: k.node, Count: n})
	}
	return loads, leases
}

// NodeStates returns one row per compute node of the cluster, captured
// under a single acquisition of the database lock so load, liveness and
// ownership are mutually consistent.
func (db *DB) NodeStates() []NodeState {
	db.mu.Lock()
	defer db.mu.Unlock()
	owners := make(map[int][]string)
	for k := range db.leases {
		owners[k.node] = append(owners[k.node], k.owner)
	}
	out := make([]NodeState, db.size)
	for id := 0; id < db.size; id++ {
		os := owners[id]
		sort.Strings(os)
		out[id] = NodeState{Node: id, RPs: db.allocated[id], Dead: db.dead[id], Owners: os}
	}
	return out
}

// LeaseCount reports how many node reservations the owner currently holds.
func (db *DB) LeaseCount(owner string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for k, c := range db.leases {
		if k.owner == owner {
			n += c
		}
	}
	return n
}

// MarkDead records that a node has failed: it is skipped by every subsequent
// selection, across Reset too. Allocations already on the node stay recorded so
// their eventual Release is balanced.
func (db *DB) MarkDead(id int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if id >= 0 && id < db.size {
		db.dead[id] = true
	}
}

// Reset releases every allocation and rewinds the round-robin cursor. The
// tables are emptied, not dropped: the next run's grants reuse what this
// one sized. Dead nodes stay dead: a death comes from the chaos injector,
// which never revives a node, so a revived node would take placements that
// every dial to it then fails.
func (db *DB) Reset() {
	db.mu.Lock()
	defer db.mu.Unlock()
	clear(db.allocated)
	clear(db.leases)
	db.rr = 0
}

// URR returns the paper's urr(cluster) allocation sequence: each identifier
// represents a new node of the cluster in a round-robin fashion.
func URR(db *DB) *Sequence {
	ids := make([]int, db.Size())
	for i := range ids {
		ids[i] = i
	}
	s, _ := NewSequence(ids...) // db.Size() > 0 by construction
	return s
}

// InPset returns the inPset(k) allocation sequence: the compute nodes of
// BlueGene pset k, forcing all selected RPs to share one I/O node.
func InPset(env *hw.Env, k int) (*Sequence, error) {
	ids, err := env.NodesInPset(k)
	if err != nil {
		return nil, err
	}
	return NewSequence(ids...)
}

// PsetRR returns the psetrr() allocation sequence: BlueGene compute node
// numbers where each succeeding node belongs to a new pset in a round-robin
// fashion, parallelizing inbound communication over different I/O nodes.
func PsetRR(env *hw.Env) (*Sequence, error) {
	psets := env.PsetCount()
	size := env.PsetSize()
	if psets == 0 || size == 0 {
		return nil, errors.New("cndb: environment has no psets")
	}
	ids := make([]int, 0, psets*size)
	for member := 0; member < size; member++ {
		for p := 0; p < psets; p++ {
			ids = append(ids, p*size+member)
		}
	}
	return NewSequence(ids...)
}
