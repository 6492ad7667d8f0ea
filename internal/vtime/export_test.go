package vtime

// PruneFloor reports the current prune floor: requests becoming ready
// before it are clamped forward to it, as the gaps behind the floor have
// been forgotten and are treated as solid busy time.
func (r *Resource) PruneFloor() Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.floor
}
