package vtime

// Txn is a per-goroutine reservation transaction on one Resource: it stages
// a serial chain of unkeyed requests locally and grants them with one Submit.
// Within a chain, link i becomes ready no earlier than the end of link i-1
// (the transaction's tail), exactly as if the owner had called UseAs once per
// link and threaded each grant's end into the next request's ready time.
// Batching changes how often the lock is taken, not what is decided under it.
//
// A Txn is owned by one goroutine and must not be shared. The zero value is
// not usable; obtain transactions from Resource.Txn.
type Txn struct {
	r     *Resource
	owner string
	tail  Time // end of the last committed link: the chain's ready floor
	reqs  []Request
}

// Txn returns a new transaction charging owner (AnonymousOwner for the
// anonymous aggregate). The chain tail starts at virtual time zero.
func (r *Resource) Txn(owner string) *Txn {
	return &Txn{r: r, owner: owner}
}

// Reserve stages one link: a reservation of service virtual nanoseconds
// becoming ready no earlier than ext (external bound) and no earlier than
// the end of the preceding link. Nothing is granted until Commit.
func (t *Txn) Reserve(ext Time, service Duration) {
	t.reqs = append(t.reqs, Request{Resource: t.r, Ready: ext, Service: service})
}

// Commit submits every staged link as one chain and returns them, granted,
// in staging order; the slice is valid until the next Reserve. Committing an
// empty transaction returns nothing without locking.
func (t *Txn) Commit() []Request {
	staged := t.reqs
	if len(staged) == 0 {
		return nil
	}
	staged[0].Ready = MaxTime(staged[0].Ready, t.tail)
	Submit(t.owner, staged)
	t.tail = staged[len(staged)-1].End
	t.reqs = staged[:0]
	return staged
}
