// Package vtime provides virtual-time accounting for the simulated LOFAR
// hardware environment.
//
// SCSQ's engine runs for real — goroutines, channels, marshaled bytes — but
// the *time* each communication step takes is charged against virtual
// resources (CPUs, communication co-processors, NICs, I/O-node forwarders).
// A resource is serially reusable: a request that becomes ready at virtual
// time t and needs s nanoseconds of service starts at max(t, resource free
// time), and the resource is busy until start+s. Timestamps propagate along
// streams, so the virtual completion time of a finite stream query equals
// the makespan the modeled hardware would have exhibited.
//
// Bandwidth reported by the experiment harness is payload bytes divided by
// virtual elapsed time.
//
// Virtual time is granted through one door: Submit places a chain of
// Requests, each keyed by (owner, stream, seq), charges every one to its
// owner (a query id, or AnonymousOwner) and reports it to the resource's
// recorder; a process submits through its Agent, in its turn in the
// engine's Kernel. UseAs and Txn are unkeyed wrappers for tests and
// benchmarks.
// Per-owner totals (BusyTimeBy, OwnerBusy) always sum to BusyTime; FoldOwner
// moves a finished owner's total into RetiredOwner to bound the owner table.
package vtime

import (
	"fmt"
	"sync"
	"time"
)

// Time is a virtual instant, in nanoseconds since the start of the
// experiment. Virtual time is unrelated to the wall clock.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common virtual durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration in (fractional) seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Std converts a virtual duration to a time.Duration of equal magnitude.
func (d Duration) Std() time.Duration { return time.Duration(d) }

func (t Time) String() string { return fmt.Sprintf("vt+%s", time.Duration(t)) }

func (d Duration) String() string { return time.Duration(d).String() }

// MaxTime returns the later of two instants.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Resource is a serially reusable virtual device (a CPU, a communication
// co-processor, a NIC, ...). The zero value is a resource that is free at
// virtual time zero. A Resource must not be copied after first use.
//
// Reservations are granted earliest-fit with backfilling: a request that
// becomes ready at time t is placed in the earliest free gap of sufficient
// length at or after t, even if later intervals were already granted, so a
// goroutine the Go scheduler ran late is not pushed behind work that came
// after it in simulated time. Which of two requests wins a gap both fit
// still follows the order they were submitted in, which the kernel makes the
// order of the requests' keys (Kernel, DESIGN §11).
//
// A grant of an agent (Agent.Submit) raises the resource's prune floor to
// its kernel's time, before which no request can be ready, and drops the
// reservations wholly before it: the pruned prefix is treated as solid busy
// time, so a request from before the floor would be clamped forward to it.
// This bounds the busy list by what the live processes can still reach
// instead of the experiment's total reservation count. A resource only ever
// granted outside a kernel is never pruned.
type Resource struct {
	mu   sync.Mutex
	name string
	busy []interval // busy[head:] = live sorted, non-overlapping, merged reservations
	head int        // busy[:head] are dead (pruned or vacated) slots
	used Duration   // total busy time, for utilization reporting

	lastEnd Time // latest granted end, kept exact across pruning (FreeAt)
	floor   Time // prune floor: everything before it is treated as busy

	usedBy map[string]Duration // per-owner busy time, incl. AnonymousOwner; nil until first use

	// recorder, when set, observes every granted placement in grant order
	// (see SetRecorder).
	recorder func(owner string, q Request)
}

// AnonymousOwner is the reserved owner key under which reservations of no query
// are accounted in BusyTimeBy and OwnerBusy.
const AnonymousOwner = ""

// RetiredOwner is the reserved owner key that accumulates the busy time of
// owners folded away by FoldOwner. Query ids never collide with it.
const RetiredOwner = "retired"

type interval struct {
	start, end Time
}

// NewResource returns a named resource that is free at virtual time zero.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name returns the resource's name ("" for the zero value).
func (r *Resource) Name() string { return r.name }

// UseAs reserves the resource for service virtual nanoseconds, starting no
// earlier than ready, and returns the granted interval [start, end), charged
// to owner: the grant of one unkeyed request.
func (r *Resource) UseAs(owner string, ready Time, service Duration) (start, end Time) {
	q := [1]Request{{Resource: r, Ready: ready, Service: service}}
	r.grant(owner, q[:], 0, 0)
	return q[0].Start, q[0].End
}

// Stage is one serialised device on a route: a frame of s payload bytes
// occupies Resource for Service(s). Label names the stage as a hop of traced
// frames ("nic be:1", "iofwd io:0"; hw formats them once per environment); a
// stage with an empty label leaves no hop.
type Stage struct {
	Resource *Resource
	Service  func(bytes int) Duration
	Label    string
}

// Request is one reservation of a chain passed to Submit. Stream and Seq key
// it within its owner — the submitting stream and the request's position in
// it — so a recorder can pair one request across two runs.
type Request struct {
	Resource *Resource // nil: granted without contention
	Stream   string
	Seq      uint64
	// Ready is the earliest instant the request may start; Submit replaces it
	// with the effective ready time.
	Ready   Time
	Service Duration
	// Start and End are the grant [Start, End), filled by Submit.
	Start, End Time
}

// Submit grants the chain reqs in order on behalf of owner: request i becomes
// ready at max(0, reqs[i].Ready, reqs[i-1].End) and is placed earliest-fit on
// its Resource, which charges its Service to owner. Consecutive requests on
// one resource are granted under one lock acquisition and one owner-account
// update. A nil Resource grants [ready, ready+Service) without contention; a
// non-positive Service yields the empty grant [ready, ready) and is not
// charged. Each request's effective Ready, Start and End are filled in place.
// A long chain may be submitted in runs, each run's first Ready the End of
// the run before. A process submits through its agent (Agent.Submit), which
// takes its turn in the kernel first.
func Submit(owner string, reqs []Request) { submit(owner, reqs, 0) }

// submit is Submit with each resource's prune floor raised to floor first.
func submit(owner string, reqs []Request, floor Time) {
	var prev Time
	for i := 0; i < len(reqs); {
		j := i + 1
		for j < len(reqs) && reqs[j].Resource == reqs[i].Resource {
			j++
		}
		prev = reqs[i].Resource.grant(owner, reqs[i:j], prev, floor)
		i = j
	}
}

// grant is Submit for a run of requests on r (nil: no contention), chained
// from prev, after pruning at floor; it returns the end of the last. It is
// the one place a placement is decided, accounted and recorded.
func (r *Resource) grant(owner string, reqs []Request, prev, floor Time) Time {
	var total Duration
	for i := range reqs {
		total += max(reqs[i].Service, 0)
	}
	locked := r != nil && total > 0
	if locked {
		r.mu.Lock()
		if r.usedBy == nil {
			r.usedBy = make(map[string]Duration)
		}
		r.used += total
		r.usedBy[owner] += total
		r.prune(floor)
	}
	for i := range reqs {
		q := &reqs[i]
		q.Ready = max(q.Ready, prev, 0)
		q.Start, q.End = q.Ready, q.Ready
		switch {
		case q.Service <= 0:
		case r == nil:
			q.End = q.Ready.Add(q.Service)
		default:
			q.Start, q.End = r.place(q.Ready, q.Service)
			if r.recorder != nil {
				r.recorder(owner, *q)
			}
		}
		prev = q.End
	}
	if locked {
		r.mu.Unlock()
	}
	return prev
}

// SetRecorder installs fn, invoked under the resource's lock for every
// placed request in grant order, with its owner, key, effective ready time
// (before the prune floor clamp), service and grant. Placement is a
// deterministic function of the busy list and the effective ready time, so
// replaying the log's (owner, Ready, Service) through UseAs on a fresh
// Resource reproduces the grants. A nil fn uninstalls the recorder; fn must
// not call back into the Resource.
func (r *Resource) SetRecorder(fn func(owner string, q Request)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recorder = fn
}

// place grants one contiguous earliest-fit reservation. r.mu must be held.
func (r *Resource) place(ready Time, service Duration) (start, end Time) {
	if ready < r.floor {
		// The gaps before the prune floor are gone: treat them as busy.
		ready = r.floor
	}

	// Find the first live reservation that ends after ready; earlier ones
	// cannot constrain the placement.
	lo, hi := r.head, len(r.busy)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.busy[mid].end <= ready {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	cand := ready
	i := lo
	for ; i < len(r.busy); i++ {
		if r.busy[i].start >= cand.Add(service) {
			break // the gap before reservation i fits
		}
		if r.busy[i].end > cand {
			cand = r.busy[i].end
		}
	}
	start = cand
	end = start.Add(service)
	r.insert(i, interval{start: start, end: end})
	if end > r.lastEnd {
		r.lastEnd = end
	}
	return start, end
}

// insert places iv before index i (i >= r.head), merging with contiguous
// live neighbors.
func (r *Resource) insert(i int, iv interval) {
	mergePrev := i > r.head && r.busy[i-1].end == iv.start
	mergeNext := i < len(r.busy) && r.busy[i].start == iv.end
	switch {
	case mergePrev && mergeNext:
		r.busy[i-1].end = r.busy[i].end
		r.busy = append(r.busy[:i], r.busy[i+1:]...)
	case mergePrev:
		r.busy[i-1].end = iv.end
	case mergeNext:
		r.busy[i].start = iv.start
	case i == r.head && r.head > 0:
		// Reuse the vacant slot in front of the live window: common for
		// requests landing just behind every live reservation.
		r.head--
		r.busy[r.head] = iv
	default:
		r.busy = append(r.busy, interval{})
		copy(r.busy[i+1:], r.busy[i:])
		r.busy[i] = iv
	}
}

// prune advances the prune floor to f and drops reservations wholly before
// it. Dropping is an index advance; the dead prefix is compacted away once
// it dominates the slice, keeping inserts' memmoves and the slice's memory
// bounded by what lies after the floor. r.mu must be held.
func (r *Resource) prune(f Time) {
	if f <= r.floor {
		return
	}
	r.floor = f
	for r.head < len(r.busy) && r.busy[r.head].end <= f {
		r.head++
	}
	if r.head > 64 && r.head > len(r.busy)/2 {
		live := copy(r.busy, r.busy[r.head:])
		r.busy = r.busy[:live]
		r.head = 0
	}
}

// FreeAt reports the end of the last reservation (the earliest instant at
// which the resource is certainly available).
func (r *Resource) FreeAt() Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastEnd
}

// BusyTime reports the total virtual time the resource has been in use.
func (r *Resource) BusyTime() Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.used
}

// BusyTimeBy reports the virtual time charged to the given owner.
func (r *Resource) BusyTimeBy(owner string) Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.usedBy[owner]
}

// OwnerBusy returns a copy of the per-owner busy accounting: owner (query
// id) to total virtual service time. Reservations of no query appear under
// AnonymousOwner; the values sum to BusyTime.
func (r *Resource) OwnerBusy() map[string]Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.usedBy) == 0 {
		return nil
	}
	out := make(map[string]Duration, len(r.usedBy))
	for k, v := range r.usedBy {
		out[k] = v
	}
	return out
}

// FoldOwner moves owner's busy time into the RetiredOwner aggregate and
// forgets the owner, so the owner table of a long-lived resource stays
// bounded by the owners still of interest while the per-owner values keep
// summing to BusyTime. Folding an unknown owner is a no-op.
func (r *Resource) FoldOwner(owner string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.usedBy[owner]; ok {
		delete(r.usedBy, owner)
		r.usedBy[RetiredOwner] += d
	}
}

// Reset returns the resource to the free-at-zero state. Used between
// experiment repetitions. The capacity of what a run sized is kept: the busy list and the per-owner table are
// emptied, not dropped, so the next run's first grant by an owner seen
// before allocates nothing.
func (r *Resource) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.busy = r.busy[:0]
	r.head = 0
	r.used = 0
	r.lastEnd = 0
	r.floor = 0
	clear(r.usedBy)
}
