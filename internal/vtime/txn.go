package vtime

// Grant is one granted reservation interval [Start, End).
type Grant struct {
	Start, End Time
}

// Txn is a per-goroutine reservation transaction on one Resource: it
// accumulates a serial chain of reservation requests locally and commits
// them in one critical section. Within a chain, link i becomes ready no
// earlier than the end of link i-1 (the transaction's tail), exactly as if
// the owner had called UseAs once per link and threaded each grant's end
// into the next request's ready time — the pattern of a receiver charging
// consecutive frames on its node CPU.
//
// Batching does not change any granted schedule. A placement is a
// deterministic function of the busy list and the effective ready time
// only; committing a goroutine's chain under one lock acquisition yields
// the same interleaving-free sequence of placements the serial calls would
// have produced had the goroutine held the lock across them — and the
// conservative pacer already bounds how far concurrent goroutines' ready
// times skew, so earliest-fit backfilling absorbs the coarser interleaving
// the same way it absorbs wall-clock scheduling jitter. What batching
// removes is the per-reservation lock acquisition and owner-accounting map
// operation, paid once per commit instead of once per link.
//
// A Txn is owned by one goroutine and must not be shared. The zero value is
// not usable; obtain transactions from Resource.Txn.
type Txn struct {
	r     *Resource
	owner string
	tail  Time // end of the last committed link: the chain's ready floor

	ext    []Time
	svc    []Duration
	staged Duration // total staged service, accounted in one operation
	grants []Grant
}

// Txn returns a new transaction charging owner (AnonymousOwner for the
// anonymous aggregate). The chain tail starts at virtual time zero.
func (r *Resource) Txn(owner string) *Txn {
	return &Txn{r: r, owner: owner}
}

// Tail returns the end of the last committed link — the earliest ready time
// of the next link.
func (t *Txn) Tail() Time { return t.tail }

// Reserve stages one link: a reservation of service virtual nanoseconds
// becoming ready no earlier than ext (external bound) and no earlier than
// the end of the preceding link. Nothing is granted until Commit.
func (t *Txn) Reserve(ext Time, service Duration) {
	t.ext = append(t.ext, ext)
	t.svc = append(t.svc, service)
	if service > 0 {
		t.staged += service
	}
}

// Commit grants every staged link in one critical section and returns the
// grants in staging order. The returned slice is reused by the next Commit.
// A link with non-positive service yields the empty grant [ready, ready)
// and is not charged, mirroring UseAs. Committing an empty transaction
// returns an empty slice without locking.
func (t *Txn) Commit() []Grant {
	t.grants = t.grants[:0]
	if len(t.ext) == 0 {
		return t.grants
	}
	r := t.r
	prev := t.tail
	r.mu.Lock()
	if t.staged > 0 {
		r.accountLocked(t.owner, t.staged)
	}
	for i, ext := range t.ext {
		ready := ext
		if ready < 0 {
			ready = 0
		}
		if prev > ready {
			ready = prev
		}
		var s, e Time
		if svc := t.svc[i]; svc <= 0 {
			s, e = ready, ready
		} else {
			s, e = r.placeSliced(ready, svc)
			if r.recorder != nil {
				r.recorder(t.owner, ready, svc, s, e)
			}
		}
		t.grants = append(t.grants, Grant{Start: s, End: e})
		prev = e
	}
	r.mu.Unlock()
	t.tail = prev
	t.ext = t.ext[:0]
	t.svc = t.svc[:0]
	t.staged = 0
	return t.grants
}
