package sched

// syscat.go is the scheduler's contribution to the queryable system
// catalog: the sys_sessions table (the structured form of ps()) and the
// virtual-time tick subscription that paces streamof(sys_*) live-delta
// streams on the engine's progress.

import (
	"scsq/internal/catalog"
)

// SysSessionsSchema is the sys_sessions column list, exported so the SCSQL
// ps() view and the schema drift guard share one definition.
var SysSessionsSchema = catalog.Schema{
	{Name: "id", Type: catalog.TString},
	{Name: "state", Type: catalog.TString},
	{Name: "priority", Type: catalog.TInt},
	{Name: "nodes", Type: catalog.TInt},
	{Name: "statement", Type: catalog.TString},
	{Name: "deadline_ns", Type: catalog.TInt},
	{Name: "age_ns", Type: catalog.TInt},
	{Name: "retries", Type: catalog.TInt},
}

// registerSysSessions installs the sys_sessions provider into the engine's
// system catalog. Attaching a new scheduler to the same engine re-registers
// the table over the old provider (catalog replacement semantics).
func (s *Scheduler) registerSysSessions() {
	t := &catalog.Table{
		Name:   "sys_sessions",
		Doc:    "scheduler sessions: lifecycle, priority, leases, deadlines, retries",
		Schema: SysSessionsSchema,
	}
	t.Snap = func(string) ([]catalog.Tuple, error) {
		infos := s.List()
		rows := make([]catalog.Tuple, 0, len(infos))
		for _, in := range infos {
			rows = append(rows, t.Row(in.ID, in.State.String(), int64(in.Priority),
				int64(in.Nodes), in.Statement, int64(in.Deadline), int64(in.Age),
				int64(in.Retries)))
		}
		return rows, nil
	}
	if err := s.eng.SystemCatalog().Register(t); err != nil {
		panic(err) // static schema: an error here is a programming bug
	}
}

// SubscribeVTime returns a channel that receives a (coalesced) tick each
// time the scheduler's virtual policy clock advances — as queries progress,
// or on a harness tick — plus a cancel function. The channel is closed when
// cancelled or when the scheduler closes, so a live-delta stream blocked on
// it terminates cleanly.
//
// Ticks are delivered with a non-blocking send into a buffer of one: a slow
// subscriber coalesces ticks instead of back-pressuring the processes whose
// elements advance the clock, which is what keeps catalog observation free
// of virtual-time perturbation.
func (s *Scheduler) SubscribeVTime() (<-chan struct{}, func()) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.subs == nil {
		s.subs = make(map[int]chan struct{})
	}
	id := s.subSeq
	s.subSeq++
	ch := make(chan struct{}, 1)
	s.subs[id] = ch
	s.nsubs.Store(int32(len(s.subs)))
	cancel := func() {
		s.subMu.Lock()
		defer s.subMu.Unlock()
		if c, ok := s.subs[id]; ok {
			delete(s.subs, id)
			s.nsubs.Store(int32(len(s.subs)))
			close(c)
		}
	}
	return ch, cancel
}

// tickSubscribers wakes every live-delta subscriber. Never blocks, and takes
// no lock while nobody is subscribed.
func (s *Scheduler) tickSubscribers() {
	if s.nsubs.Load() == 0 {
		return
	}
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for _, ch := range s.subs {
		select {
		case ch <- struct{}{}:
		default: // subscriber already has a pending tick
		}
	}
}

// closeSubscribers ends every live-delta stream; called from Close.
func (s *Scheduler) closeSubscribers() {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for id, ch := range s.subs {
		delete(s.subs, id)
		close(ch)
	}
	s.nsubs.Store(0)
}
