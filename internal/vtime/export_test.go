package vtime

// Test seams of Resource: only vtime's own tests steer the backfill horizon
// or read the prune floor.

// SetBackfillHorizon overrides how far behind the ready high-water mark
// reservations are kept for backfilling. Zero restores the default
// (DefaultBackfillHorizon); a negative value disables pruning entirely.
func (r *Resource) SetBackfillHorizon(d Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.horizon = d
}

// PruneFloor reports the current prune floor: requests becoming ready
// before it are clamped forward to it, as the gaps behind the floor have
// been forgotten and are treated as solid busy time.
func (r *Resource) PruneFloor() Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.floor
}
