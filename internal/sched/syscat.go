package sched

// syscat.go is the scheduler's contribution to the queryable system
// catalog: the sys_sessions table, the virtual policy clock that dates its
// rows, and the tick subscription that paces streamof(sys_*) live-delta
// streams on the engine's progress.

import (
	"scsq/internal/catalog"
	"scsq/internal/vtime"
)

// sysSessionsSchema is the sys_sessions column list.
var sysSessionsSchema = catalog.Schema{
	{Name: "id", Type: catalog.TString},
	{Name: "state", Type: catalog.TString},
	{Name: "priority", Type: catalog.TInt},
	{Name: "nodes", Type: catalog.TInt},
	{Name: "statement", Type: catalog.TString},
	{Name: "age_ns", Type: catalog.TInt},
}

// registerSysSessions installs the sys_sessions provider into the engine's
// system catalog. Attaching a new scheduler to the same engine re-registers
// the table over the old provider (catalog replacement semantics).
func (s *Scheduler) registerSysSessions() {
	t := &catalog.Table{
		Name:   "sys_sessions",
		Doc:    "scheduler sessions: lifecycle, priority, leases, age",
		Schema: sysSessionsSchema,
	}
	t.Snap = func(string) ([]catalog.Tuple, error) {
		infos := s.List()
		rows := make([]catalog.Tuple, 0, len(infos))
		for _, in := range infos {
			rows = append(rows, t.Row(in.ID, in.State.String(), int64(in.Priority),
				int64(in.Nodes), in.Statement, int64(in.Age)))
		}
		return rows, nil
	}
	if err := s.eng.SystemCatalog().Register(t); err != nil {
		panic(err) // static schema: an error here is a programming bug
	}
}

// ObserveVTime implements core.VTimeObserver: the engine reports the time of
// every element its processes emit, on the kernel's one timeline and with no
// locks held. It raises the policy clock to t and, when the clock moved,
// wakes the live-delta catalog streams (streamof over sys_* tables). The
// sends are non-blocking, so a slow or abandoned subscriber cannot
// back-pressure the emitting process; with nobody subscribed an observation
// touches atomics only.
func (s *Scheduler) ObserveVTime(t vtime.Time) {
	if s.raise(t) {
		s.tickSubscribers()
	}
}

// raise lifts the policy clock to t and reports whether it moved: an older t
// never rewinds it, and concurrent raises leave it at their maximum.
func (s *Scheduler) raise(t vtime.Time) bool {
	for {
		now := s.clock.Load()
		if int64(t) <= now {
			return false
		}
		if s.clock.CompareAndSwap(now, int64(t)) {
			return true
		}
	}
}

// now is the policy clock's current instant.
func (s *Scheduler) now() vtime.Time { return vtime.Time(s.clock.Load()) }

// SubscribeVTime returns a channel that receives a (coalesced) tick each
// time the scheduler's virtual policy clock advances — as queries progress —
// plus a cancel function. agent is the live stream's
// process, which each tick wakes by name (nil: no process). The channel is
// closed when cancelled or when the scheduler closes, so a live-delta stream
// blocked on it terminates cleanly.
//
// Ticks are delivered with a non-blocking send into a buffer of one: a slow
// subscriber coalesces ticks instead of back-pressuring the processes whose
// elements advance the clock, which is what keeps catalog observation free
// of virtual-time perturbation.
func (s *Scheduler) SubscribeVTime(agent *vtime.Agent) (<-chan struct{}, func()) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.subs == nil {
		s.subs = make(map[chan struct{}]*vtime.Agent)
	}
	ch := make(chan struct{}, 1)
	s.subs[ch] = agent
	s.nsubs.Store(int32(len(s.subs)))
	cancel := func() {
		s.subMu.Lock()
		defer s.subMu.Unlock()
		if _, ok := s.subs[ch]; ok {
			delete(s.subs, ch)
			s.nsubs.Store(int32(len(s.subs)))
			close(ch)
			vtime.Wake(agent, ch)
		}
	}
	return ch, cancel
}

// tickSubscribers wakes every live-delta subscriber: the process parked on
// the channel becomes runnable in the turn of the process whose progress
// ticked (vtime.Wake). Never blocks, and takes no lock while nobody is
// subscribed.
func (s *Scheduler) tickSubscribers() {
	if s.nsubs.Load() == 0 {
		return
	}
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for ch, agent := range s.subs {
		select {
		case ch <- struct{}{}:
			vtime.Wake(agent, ch)
		default: // subscriber already has a pending tick
		}
	}
}

// closeSubscribers ends every live-delta stream; called from Close.
func (s *Scheduler) closeSubscribers() {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for ch, agent := range s.subs {
		delete(s.subs, ch)
		close(ch)
		vtime.Wake(agent, ch)
	}
	s.nsubs.Store(0)
}
