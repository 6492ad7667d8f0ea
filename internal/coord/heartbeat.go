package coord

import "scsq/internal/vtime"

// Heartbeat failure detection (tentpole layer 2): every RP reports liveness
// on a virtual-time cadence through Beat; the coordinator declares an RP
// failed when its last beat lags the cluster's frontmost beat by more than
// K beat intervals. Virtual time, not wall time, is the yardstick: the
// engine's conservative pacer bounds how far live RPs' virtual clocks may
// spread (the pacing horizon), so a beat K intervals behind the frontier
// cannot belong to a healthy process — it belongs to one that stopped
// advancing.

// HeartbeatPolicy parameterizes failure detection.
type HeartbeatPolicy struct {
	// Interval is the virtual-time cadence on which RPs beat.
	Interval vtime.Duration
	// MissK is how many whole intervals an RP's last beat may lag the
	// frontmost beat before the RP is declared failed.
	MissK int
}

// Threshold returns the maximum tolerated beat lag.
func (p HeartbeatPolicy) Threshold() vtime.Duration {
	k := p.MissK
	if k < 1 {
		k = 1
	}
	return vtime.Duration(k) * p.Interval
}

// Beat records a liveness report from RP id at virtual time at. Beats are
// monotone per RP; a stale report is ignored. A beat that advances the
// cluster's frontier is relayed to the beat observer — after c.mu is
// released, so the observer may call back into the coordinator (a scheduler
// sweep that re-attempts placement takes the same mutex via PlaceFor).
func (c *Coordinator) Beat(id string, at vtime.Time) {
	c.mu.Lock()
	c.mBeats.Inc()
	if at > c.beats[id] {
		c.beats[id] = at
	}
	var obs func(vtime.Time)
	var front vtime.Time
	if at > c.front {
		c.front = at
		obs, front = c.beatObs, c.front
	}
	c.mu.Unlock()
	if obs != nil {
		obs(front)
	}
}

// SetBeatObserver installs fn, invoked (outside the coordinator's mutex)
// with the new beat frontier whenever a beat advances it. One observer; nil
// clears it.
func (c *Coordinator) SetBeatObserver(fn func(vtime.Time)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.beatObs = fn
}

// LastBeat returns the latest beat recorded for RP id, and whether one ever
// was.
func (c *Coordinator) LastBeat(id string) (vtime.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	at, ok := c.beats[id]
	return at, ok
}

// Stale returns the ids of registered RPs whose last beat lags the frontmost
// recorded beat by more than the policy's threshold — the K-missed-beats
// failure criterion. RPs that have terminated (their streams are complete,
// so they legitimately stop beating) are not reported. The result is empty
// until at least one beat has been recorded.
func (c *Coordinator) Stale(p HeartbeatPolicy) []string {
	if p.Interval <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var front vtime.Time
	for _, at := range c.beats {
		front = vtime.MaxTime(front, at)
	}
	if front == 0 {
		return nil
	}
	threshold := p.Threshold()
	var stale []string
	for id, rp := range c.rps {
		if rp.Done() {
			continue
		}
		if last := c.beats[id]; front.Sub(last) > threshold {
			stale = append(stale, id)
		}
	}
	return stale
}
