package vtime

import (
	"iter"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// State is where a process stands in its kernel.
type State int32

const (
	Running State = iota // holds the token, or is runnable and waits for it
	Inbox                // parked on its inbox, waiting for a frame
	Credit               // parked on a subscriber's full inbox: flow control
	Tick                 // parked on a policy-clock tick, or waiting outside the kernel
	Done                 // finished: it holds nobody back
)

func (s State) String() string { return [...]string{"running", "inbox", "credit", "tick", "done"}[s] }

// idleWorkers is how long a kernel with no live agent keeps its workers. A
// process that starts takes an idle worker rather than making a coroutine —
// several allocations and a stack to grow — so the statements of a repeat
// loop, or of a client, that follow each other closer than this cost what
// one goroutine per process did (without it a Query 6 repeat allocates a
// quarter more objects). At 1 ms a served session sometimes finds no
// worker left after the gap since the previous one.
const idleWorkers = 20 * time.Millisecond

// Kernel is an engine's sequential virtual-time kernel: one token, handed to
// the runnable agent with the least key (ready, owner, stream, seq), in any
// query. The holder runs until it parks on a channel (Recv, Send), waits
// outside the kernel (Wait), ends, or submits a request behind a lesser
// runnable agent (Agent.Submit). A frame delivered to an inbox makes the
// agent parked on it runnable at the frame's arrival time. So grants follow
// the keys of the requests, not the order the host runs goroutines in, and
// the virtual numbers of processes started together are a function of
// query, topology and cost model. A caller outside the kernel that starts
// more (Pause, Go) does so between two turns wherever the host's timing
// puts it.
//
// The processes are coroutines: a driver goroutine resumes the holder on a
// worker (iter.Pull) and regains control when it parks, so a handoff is two
// coroutine switches.
//
// The kernel's time (Now) is the engine's one virtual timeline, and it
// never goes back. While agents live it is the least mark of those running,
// runnable or parked on credit. An agent's mark bounds the ready time of
// what it submits next: its start, raised by what it emits, set to the
// arrival of the frame that wakes it from its inbox and lowered to the
// arrival of every frame delivered to its inbox while it is not parked
// there. One parked on its inbox submits nothing before its next frame, so
// it holds nobody back. No request is then ready before the kernel's time,
// and Agent.Submit prunes at it; a process resumed after waiting outside
// the kernel (Wait, a tick) resumes at the kernel's time. Once the last
// live agent is done, the kernel's time moves up to the greatest mark it has
// seen: a process started after the ones before it have ended starts no
// earlier than the last thing they did.
//
// The zero value is a kernel at time zero with no agents.
type Kernel struct {
	mu      sync.Mutex // guards the kernel and where its agents are parked
	runq    []entry    // runnable agents, sorted by key, the least last
	live    []*Agent   // started and not done
	paused  int        // Pause nesting: nobody is resumed
	joins   uint32
	driving bool      // the driver goroutine runs
	holding bool      // the driver has resumed a process that has not parked
	cond    sync.Cond // on mu: the driver, Pause and Await wait here
	idle    []*worker // workers whose process ended
	trim    *time.Timer
	high    Time // the greatest mark an agent has had
	now     atomic.Int64
	least   atomic.Int64 // 1 + the time of runq's least key; 0 when empty
}

// Agent is one process in a kernel. Only the process runs it; its state and
// frontier may be read by anyone. A nil agent is no process: its waits block
// on the channel, its Submit takes no turn, and it records nothing.
//
// Every wait names the agent that ends it. A process parks on its own inbox
// or tick, which its senders and tickers wake by name, or on the credit of
// the consumer it sends to, which that consumer's receives wake.
type Agent struct {
	k      *Kernel
	emit   func(Time)
	proc   Process // what Go runs
	w      *worker // the worker it runs on, nil until its first turn
	on     any     // the channel it is parked on (key): its own, or to's inbox
	to     *Agent  // parked on credit: the consumer whose credit it waits on
	next   *Agent  // the next agent parked on to's credit
	credit *Agent  // the first agent parked on this one's credit
	shut   *[]any  // the inboxes Shut closed to their senders

	owner          string // the query id: the key's second part
	join           uint32 // start order: the key's last tie-break
	start          Time   // the kernel's time at Go
	started, ended bool

	state    atomic.Int32
	frontier atomic.Int64 // the latest time it emitted
	mark     atomic.Int64 // no request it submits is ready before it
}

// Process is what an agent runs.
type Process interface{ Run() }

// entry is a runnable agent under the key it waits for its turn by: the
// request it submits, or (at, "", 0) once a wake or its start makes it
// runnable at time at.
type entry struct {
	a      *Agent
	at     Time
	stream string
	seq    uint64
}

// worker is a coroutine processes run on, one at a time.
type worker struct {
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	a      *Agent // the process it runs; nil once it ended
}

func newWorker() *worker {
	w := &worker{}
	w.resume, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		for {
			w.a.run()
			if w.a = nil; !yield(struct{}{}) {
				return
			}
		}
	})
	return w
}

// Now is the kernel's time.
func (k *Kernel) Now() Time { return Time(k.now.Load()) }

// wait waits on the kernel's cond. k.mu must be held.
func (k *Kernel) wait() {
	k.cond.L = &k.mu
	k.cond.Wait()
}

// Join adds a process of query owner, which hands every time it emits to
// emit (nil: nowhere). The agent takes no turn until Go.
func (k *Kernel) Join(owner string, emit func(Time)) *Agent {
	return &Agent{k: k, owner: owner, emit: emit}
}

// Pause stops the kernel resuming anybody until the matching Resume, and
// waits until the holder has parked: from its return nobody runs, so what
// the caller does takes a turn of its own between two of the processes'.
// Admission pauses it while sessions are built and started, and a harness
// around several submissions, so sessions submitted together start at one
// kernel instant. A process must not call it: it would wait for itself.
func (k *Kernel) Pause() {
	k.mu.Lock()
	for k.paused++; k.holding; {
		k.wait()
	}
	k.mu.Unlock()
}

// Resume ends a Pause.
func (k *Kernel) Resume() {
	k.mu.Lock()
	k.paused--
	k.cond.Broadcast()
	k.mu.Unlock()
}

// Go runs p as the agent's process: runnable now, at the kernel's time — its
// start — it runs in its turns until p.Run returns, and then is done.
// Starting twice is a no-op. A nil agent runs p on a goroutine of its own.
func (a *Agent) Go(p Process) {
	if a == nil {
		go p.Run()
		return
	}
	k := a.k
	k.mu.Lock()
	defer k.mu.Unlock()
	if a.started || a.State() == Done {
		return
	}
	k.joins++
	a.started, a.proc, a.join, a.start = true, p, k.joins, k.Now()
	a.mark.Store(int64(a.start))
	k.live = append(k.live, a)
	k.push(entry{a: a, at: a.start})
}

// Await blocks until the agent's process has ended, or until the agent is
// done without having started.
func (a *Agent) Await() {
	a.k.mu.Lock()
	for !a.ended {
		a.k.wait()
	}
	a.k.mu.Unlock()
}

// run is the process on its worker.
func (a *Agent) run() {
	a.proc.Run()
	a.Done()
}

func (a *Agent) State() State   { return State(a.state.Load()) }
func (a *Agent) Frontier() Time { return Time(a.frontier.Load()) }

// Start is the kernel's time at Go: the instant the agent's readings count
// from.
func (a *Agent) Start() Time { return a.start }

// Emit reports an element emitted at virtual time at: it publishes the
// frontier and the mark (regressions are ignored) and hands at to the
// agent's emit func.
func (a *Agent) Emit(at Time) {
	if a == nil {
		return
	}
	if at > a.Frontier() {
		a.frontier.Store(int64(at))
	}
	a.raise(at)
	if a.emit != nil {
		a.emit(at)
	}
}

// Done retires the agent: it holds nobody back, and Await returns. Its
// process is done as it ends; one failed before it started is done at once.
// A done agent reads no inbox again: the senders parked on its credit wake,
// and every Send to it reports false, as after Shut.
func (a *Agent) Done() {
	if a == nil {
		return
	}
	k := a.k
	k.mu.Lock()
	defer k.mu.Unlock()
	if a.State() == Done {
		return
	}
	a.state.Store(int32(Done))
	k.runq = slices.DeleteFunc(k.runq, func(e entry) bool { return e.a == a })
	k.settle()
	a.unpark()
	a.wakeCredit(nil, 0)
	k.live = slices.DeleteFunc(k.live, func(l *Agent) bool { return l == a })
	if k.high = max(k.high, a.Frontier(), Time(a.mark.Load())); len(k.live) == 0 && k.high > k.Now() {
		k.now.Store(int64(k.high))
	}
	a.ended, a.proc = true, nil
	k.cond.Broadcast()
}

// Submit grants reqs on behalf of owner, as vtime.Submit does, in the
// agent's turn: the chain's first request is ready no earlier than the
// agent's start, and if a runnable agent's key is less than that request's,
// the agent hands it the token and waits for its own turn first. The
// resources prune at the kernel's time.
func (a *Agent) Submit(owner string, reqs []Request) {
	if a == nil {
		Submit(owner, reqs)
		return
	}
	if len(reqs) > 0 && reqs[0].Ready < a.start {
		reqs[0].Ready = a.start
	}
	k := a.k
	// A request ready before every runnable agent goes on without the lock.
	if l := k.least.Load(); len(reqs) > 0 && l != 0 && reqs[0].Ready >= Time(l-1) && a.w != nil {
		k.mu.Lock()
		e := entry{a: a, at: reqs[0].Ready, stream: reqs[0].Stream, seq: reqs[0].Seq}
		if n := len(k.runq); n > 0 && k.runq[n-1].before(&e) {
			k.push(e)
			a.suspend()
		}
		k.mu.Unlock()
	}
	submit(owner, reqs, k.Now())
}

// before orders keys, the start order breaking ties. Owners compare shorter
// first, so query ids q1, q2, …, q10 keep their order: the tenants of a
// batch are ordered alike whichever ids they drew.
func (e *entry) before(f *entry) bool {
	switch a, b := e.a, f.a; {
	case e.at != f.at:
		return e.at < f.at
	case len(a.owner) != len(b.owner):
		return len(a.owner) < len(b.owner)
	case a.owner != b.owner:
		return a.owner < b.owner
	case e.stream != f.stream:
		return e.stream < f.stream
	case e.seq != f.seq:
		return e.seq < f.seq
	}
	return e.a.join < f.a.join
}

// push makes e runnable, and starts the kernel's driver or wakes it. k.mu
// must be held.
func (k *Kernel) push(e entry) {
	k.runq = append(k.runq, e)
	i := len(k.runq) - 1
	for ; i > 0 && k.runq[i-1].before(&e); i-- {
		k.runq[i] = k.runq[i-1]
	}
	k.runq[i] = e
	k.settle()
	if !k.driving {
		k.driving = true
		go k.drive()
	} else if !k.holding {
		k.cond.Broadcast()
	}
}

// settle publishes the time of the least runnable key. k.mu must be held.
func (k *Kernel) settle() {
	if n := len(k.runq); n == 0 {
		k.least.Store(0)
	} else {
		k.least.Store(1 + int64(k.runq[n-1].at))
	}
}

// suspend hands control back to the driver until the agent's next turn.
// a.k.mu must be held; it is held again on return.
func (a *Agent) suspend() {
	a.k.mu.Unlock()
	a.w.yield(struct{}{})
	a.k.mu.Lock()
}

// drive resumes the kernel's processes, the least runnable first, until
// none is live.
func (k *Kernel) drive() {
	k.mu.Lock()
	defer k.mu.Unlock()
	for {
		for k.paused > 0 || len(k.runq) == 0 {
			if len(k.live) == 0 {
				k.driving = false
				if k.trim == nil {
					k.trim = time.AfterFunc(idleWorkers, k.trimIdle)
				}
				k.trim.Reset(idleWorkers)
				return
			}
			k.wait()
		}
		n := len(k.runq) - 1
		a := k.runq[n].a
		k.runq[n] = entry{}
		k.runq = k.runq[:n]
		k.settle()
		k.advance()
		w := a.w
		if w == nil {
			if n := len(k.idle); n > 0 {
				w, k.idle = k.idle[n-1], k.idle[:n-1]
			} else {
				w = newWorker()
			}
			w.a, a.w = a, w
		}
		k.holding = true
		k.mu.Unlock()
		w.resume()
		k.mu.Lock()
		if k.holding = false; k.paused > 0 {
			k.cond.Broadcast()
		}
		if w.a == nil {
			a.w = nil
			k.idle = append(k.idle, w)
		}
	}
}

// trimIdle ends the workers of a kernel that stayed without live agents.
func (k *Kernel) trimIdle() {
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.driving {
		for _, w := range k.idle {
			w.stop()
		}
		k.idle = nil
	}
}

// raise moves the agent's mark up to t.
func (a *Agent) raise(t Time) {
	if int64(t) > a.mark.Load() {
		a.mark.Store(int64(t))
	}
}

// advance moves the kernel's time up to the least mark of the agents in it.
// k.mu must be held.
func (k *Kernel) advance() {
	least := Time(math.MaxInt64)
	for _, l := range k.live {
		if s := l.State(); s == Running || s == Credit {
			least = min(least, Time(l.mark.Load()))
		}
	}
	if least != math.MaxInt64 && least > k.Now() {
		k.now.Store(int64(least))
	}
}

// key is channel ch as its agents name it, whatever its direction.
func key[T any](ch <-chan T) any { return ch }

// unpark takes the agent off whatever it is parked on. a.k.mu must be held.
func (a *Agent) unpark() {
	if a.to != nil {
		p := &a.to.credit
		for *p != a {
			p = &(*p).next
		}
		*p = a.next
	}
	a.on, a.to, a.next = nil, nil, nil
}

// wakeCredit makes the agents parked on a's credit for its inbox ch (nil:
// any) runnable at time at, their marks kept. a.k.mu must be held.
func (a *Agent) wakeCredit(ch any, at Time) {
	for p := &a.credit; *p != nil; {
		s := *p
		if ch != nil && s.on != ch {
			p = &s.next
			continue
		}
		*p, s.on, s.to, s.next = s.next, nil, nil, nil
		if c, ok := s.proc.(wakeup); ok {
			close(c)
		} else {
			s.resumeAt(at, Time(s.mark.Load()))
		}
	}
}

// wakeup is the process of an agent that never runs: a caller that is no
// process, waiting in Send on a consumer's credit until the wake closes it.
type wakeup chan struct{}

func (wakeup) Run() {}

// resumeAt makes a runnable at time at with mark m, each raised to its
// kernel's time. a.k.mu must be held.
func (a *Agent) resumeAt(at, m Time) {
	now := a.k.Now()
	m = max(m, now)
	a.k.high = max(a.k.high, m)
	a.mark.Store(int64(m))
	a.state.Store(int32(Running))
	a.k.push(entry{a: a, at: max(at, now)})
}

// arrived accounts for a frame arriving at time at in ch, the agent's inbox.
// Parked on ch, the agent becomes runnable at at with its mark there.
// Otherwise the frame waits in the inbox, and the agent's mark comes down to
// at, and so does its turn if it waits for one as a wake. a.k.mu must be
// held.
func (a *Agent) arrived(ch any, at Time) {
	if a.on == ch && a.State() == Inbox {
		a.on = nil
		a.resumeAt(at, at)
		return
	}
	k := a.k
	if at = max(at, k.Now()); !a.started || a.State() == Done || int64(at) >= a.mark.Load() {
		return
	}
	a.mark.Store(int64(at))
	for i, e := range k.runq {
		if e.a == a {
			if e.stream == "" && e.at > at {
				k.runq = slices.Delete(k.runq, i, i+1)
				k.push(entry{a: a, at: at})
			}
			return
		}
	}
}

// Recv receives from ch, agent a's inbox or tick, for a, like v, ok := <-ch:
// a value sent with Send, or followed by Wake, wakes a parked on it, and a
// receive from a full channel wakes the senders parked on a's credit. A
// closed abort (a nil one never fires), then a ready value, is taken without
// parking; otherwise a parks in state why until one comes. ok is false when
// ch closed or abort fired, and at once if nothing is ready and why is
// Running. Whoever closes ch or abort while a may be parked wakes it (Wake,
// Agent.Interrupt). A nil agent blocks on the channel itself.
func Recv[T any](a *Agent, why State, ch <-chan T, abort <-chan struct{}) (v T, ok bool) {
	for {
		select {
		case <-abort:
			return v, false
		default:
		}
		select {
		case v, ok = <-ch:
			received(a, ch, ok)
			return v, ok
		default:
		}
		if why == Running {
			return v, false
		}
		if a == nil || a.w == nil {
			select {
			case v, ok = <-ch:
			case <-abort:
				return v, false
			}
			received(a, ch, ok)
			return v, ok
		}
		a.k.mu.Lock()
		// A value sent since the check above found a not parked: it parks
		// on ch in state why until a wake makes it runnable again.
		select {
		case v, ok = <-ch:
			a.k.mu.Unlock()
			received(a, ch, ok)
			return v, ok
		default:
		}
		a.on = key(ch)
		a.state.Store(int32(why))
		a.suspend()
		a.k.mu.Unlock()
	}
}

// received wakes the senders parked on a's credit for ch, at a's mark, when
// a's receive found ch full: as the only receiver while it runs, a process
// tells by the length after it; outside its process, every receive wakes.
func received[T any](a *Agent, ch <-chan T, ok bool) {
	if ok && a != nil && (len(ch) == cap(ch)-1 || a.w == nil) {
		a.k.mu.Lock()
		a.wakeCredit(key(ch), Time(a.mark.Load()))
		a.k.mu.Unlock()
	}
}

// Send sends v, arriving at virtual time at, on ch, the inbox of agent to,
// for agent a of the same kernel; to learns of the arrival as arrived says.
// While ch is full, a parks on to's credit; a caller that is no process (nil
// a, or a outside its process) waits there too. Send reports false, not
// having sent, once abort closes, to shut ch (Shut) or to is done. With no
// consumer to name (nil to) it blocks on the channel itself.
func Send[T any](a, to *Agent, ch chan T, v T, at Time, abort <-chan struct{}) bool {
	for {
		select {
		case <-abort:
			return false
		default:
		}
		if to == nil {
			select {
			case ch <- v:
				return true
			case <-abort:
				return false
			}
		}
		on := key[T](ch)
		to.k.mu.Lock()
		if to.State() == Done || to.shut != nil && slices.Contains(*to.shut, on) {
			to.k.mu.Unlock()
			return false
		}
		select {
		case ch <- v:
			to.arrived(on, at)
			to.k.mu.Unlock()
			return true
		default:
		}
		// The sender waits on to's credit: a process parks there, a caller
		// that is no process as an agent that never runs.
		w := a
		if a == nil || a.w == nil {
			w = &Agent{proc: make(wakeup)}
		}
		w.on, w.to, w.next, to.credit = on, to, to.credit, w
		if w == a {
			a.state.Store(int32(Credit))
			a.suspend()
		}
		to.k.mu.Unlock()
		if w != a {
			select {
			case <-w.proc.(wakeup):
			case <-abort:
			}
		}
	}
}

// Wake wakes agent to parked on ch, its inbox or tick, and the senders
// parked on its credit for ch, by name: whoever sends on ch or closes it
// outside Send (a policy-clock tick), or closes an abort channel the senders
// wait with. A nil to wakes nobody.
func Wake[T any](to *Agent, ch <-chan T) {
	if to == nil {
		return
	}
	on := key(ch)
	to.k.mu.Lock()
	if to.on == on && to.to == nil {
		to.on = nil
		to.resumeAt(0, Time(to.mark.Load()))
	}
	to.wakeCredit(on, 0)
	to.k.mu.Unlock()
}

// Shut closes ch, agent a's inbox, to its senders: a consumer stops before
// its producers. The senders parked on a's credit for ch wake as a receive
// of a's would wake them, and every later Send on ch to a reports false;
// what ch holds stays there for the caller to recycle. A nil agent shuts
// nothing.
func Shut[T any](a *Agent, ch <-chan T) {
	if a == nil {
		return
	}
	on := key(ch)
	a.k.mu.Lock()
	if a.shut == nil {
		a.shut = new([]any)
	}
	*a.shut = append(*a.shut, on)
	a.wakeCredit(on, Time(a.mark.Load()))
	a.k.mu.Unlock()
}

// Interrupt makes the agent runnable if it is parked, so it looks at its
// abort channel again: a cancelled query's client drain or live stream,
// parked on a channel nobody will send on.
func (a *Agent) Interrupt() {
	if a == nil {
		return
	}
	a.k.mu.Lock()
	if a.on != nil {
		a.unpark()
		a.resumeAt(Time(a.mark.Load()), Time(a.mark.Load()))
	}
	a.k.mu.Unlock()
}

// Wait receives from a channel the kernel does not mediate — a test's gate,
// the soak figure's release — for agent a: a goroutine of its own blocks on
// the channel while a is out of the kernel in state why, and a takes its
// turn again once a value comes or abort closes (ok is false then, or when
// ch closed).
func Wait[T any](a *Agent, why State, ch <-chan T, abort <-chan struct{}) (v T, ok bool) {
	select {
	case <-abort:
		return v, false
	default:
	}
	select {
	case v, ok = <-ch:
		return v, ok
	default:
	}
	if a == nil || a.w == nil {
		select {
		case v, ok = <-ch:
		case <-abort:
		}
		return v, ok
	}
	a.k.mu.Lock()
	a.state.Store(int32(why))
	go func() {
		select {
		case v, ok = <-ch:
		case <-abort:
		}
		a.k.mu.Lock()
		a.resumeAt(Time(a.mark.Load()), Time(a.mark.Load()))
		a.k.mu.Unlock()
	}()
	a.suspend()
	a.k.mu.Unlock()
	return v, ok
}
