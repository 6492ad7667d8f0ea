package cndb

import "sort"

// The lease table as the tests compare it; production reads it through
// AppendState.

// Leases returns the live lease table sorted by owner, then node id.
func (db *DB) Leases() []Lease {
	_, out := db.AppendState(nil, nil)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Owner != out[j].Owner {
			return out[i].Owner < out[j].Owner
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// LeasedNodes returns the node ids the owner holds leases on, sorted.
func (db *DB) LeasedNodes(owner string) []int {
	ids := []int{}
	for _, l := range db.Leases() { // sorted by node within an owner
		if l.Owner == owner {
			ids = append(ids, l.Node)
		}
	}
	return ids
}
