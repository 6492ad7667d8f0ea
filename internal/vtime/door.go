package vtime

import (
	"iter"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
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

// mu guards every kernel and the table of agents parked on channels. The
// table spans kernels because a caller that is no process — a socket
// reader, an early-close drain, a poisoned inbox — reaches the agent parked
// on a channel through the channel alone, and a wake moves that agent into
// its kernel's run queue under the same lock.
var (
	mu     sync.Mutex
	parked = make(map[unsafe.Pointer]*Agent) // channel (chanKey) → first agent parked on it
)

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
// The kernel's time (Now) is the least mark of the agents in it — running,
// runnable or parked on credit. An agent's mark bounds the ready time of
// what it submits next: its start, raised by what it emits, set to the
// arrival of the frame that wakes it from its inbox and lowered to the
// arrival of every frame delivered to its inbox while it is not parked
// there. One parked on its inbox submits nothing before its next frame, so
// it holds nobody back. No request is then ready before the kernel's time,
// and Agent.Submit prunes at it; a process resumed after waiting outside
// the kernel (Wait, a tick) resumes at the kernel's time.
//
// The zero value is a kernel at time zero with no agents.
type Kernel struct {
	runq    []entry  // runnable agents, sorted by key, the least last
	live    []*Agent // started and not done
	paused  int      // Pause nesting: nobody is resumed
	joins   uint32
	driving bool      // the driver goroutine runs
	holding bool      // the driver has resumed a process that has not parked
	cond    sync.Cond // on mu: the driver, Pause and Await wait here
	idle    []*worker // workers whose process ended
	trim    *time.Timer
	now     atomic.Int64
	least   atomic.Int64 // 1 + the time of runq's least key; 0 when empty
}

// Agent is one process in a kernel. Only the process runs it; its state and
// frontier may be read by anyone. A nil agent is no process: its waits block
// on the channel, its Submit takes no turn, and it records nothing.
type Agent struct {
	k    *Kernel
	emit func(Time)
	proc Process        // what Go runs
	w    *worker        // the worker it runs on, nil until its first turn
	on   unsafe.Pointer // the channel it is parked on (chanKey)
	next *Agent         // the next agent parked on the same channel

	owner          string // the query id: the key's second part
	join           uint32 // start order: the key's last tie-break
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

// Reset rewinds the kernel to time zero. No agent may be live.
func (k *Kernel) Reset() { k.now.Store(0) }

// wait waits on the kernel's cond. mu must be held.
func (k *Kernel) wait() {
	k.cond.L = &mu
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
	mu.Lock()
	for k.paused++; k.holding; {
		k.wait()
	}
	mu.Unlock()
}

// Resume ends a Pause.
func (k *Kernel) Resume() {
	mu.Lock()
	k.paused--
	k.cond.Broadcast()
	mu.Unlock()
}

// Go runs p as the agent's process: runnable now, at the kernel's time, it
// runs in its turns until p.Run returns, and then is done. Starting twice is
// a no-op. A nil agent runs p on a goroutine of its own.
func (a *Agent) Go(p Process) {
	if a == nil {
		go p.Run()
		return
	}
	mu.Lock()
	defer mu.Unlock()
	if a.started || a.State() == Done {
		return
	}
	k := a.k
	k.joins++
	a.started, a.proc, a.join = true, p, k.joins
	a.mark.Store(int64(k.Now()))
	k.live = append(k.live, a)
	k.push(entry{a: a, at: k.Now()})
}

// Await blocks until the agent's process has ended, or until the agent is
// done without having started.
func (a *Agent) Await() {
	mu.Lock()
	for !a.ended {
		a.k.wait()
	}
	mu.Unlock()
}

// run is the process on its worker.
func (a *Agent) run() {
	a.proc.Run()
	a.Done()
}

func (a *Agent) State() State   { return State(a.state.Load()) }
func (a *Agent) Frontier() Time { return Time(a.frontier.Load()) }

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
func (a *Agent) Done() {
	if a == nil {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	if a.State() == Done {
		return
	}
	a.state.Store(int32(Done))
	k := a.k
	k.runq = slices.DeleteFunc(k.runq, func(e entry) bool { return e.a == a })
	k.settle()
	if a.on != nil {
		unpark(a)
	}
	k.live = slices.DeleteFunc(k.live, func(l *Agent) bool { return l == a })
	a.ended, a.proc = true, nil
	k.cond.Broadcast()
}

// Submit grants reqs on behalf of owner, as vtime.Submit does, in the
// agent's turn: if a runnable agent's key is less than the chain's first
// request, the agent hands it the token and waits for its own turn first.
// The resources prune at the kernel's time.
func (a *Agent) Submit(owner string, reqs []Request) {
	if a == nil {
		Submit(owner, reqs)
		return
	}
	k := a.k
	// A request ready before every runnable agent goes on without the lock.
	if l := k.least.Load(); len(reqs) > 0 && l != 0 && reqs[0].Ready >= Time(l-1) && a.w != nil {
		mu.Lock()
		e := entry{a: a, at: max(reqs[0].Ready, 0), stream: reqs[0].Stream, seq: reqs[0].Seq}
		if n := len(k.runq); n > 0 && k.runq[n-1].before(&e) {
			k.push(e)
			a.suspend()
		}
		mu.Unlock()
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

// push makes e runnable, and starts the kernel's driver or wakes it. mu
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

// settle publishes the time of the least runnable key. mu must be held.
func (k *Kernel) settle() {
	if n := len(k.runq); n == 0 {
		k.least.Store(0)
	} else {
		k.least.Store(1 + int64(k.runq[n-1].at))
	}
}

// suspend hands control back to the driver until the agent's next turn.
// mu must be held; it is held again on return.
func (a *Agent) suspend() {
	mu.Unlock()
	a.w.yield(struct{}{})
	mu.Lock()
}

// drive resumes the kernel's processes, the least runnable first, until
// none is live.
func (k *Kernel) drive() {
	mu.Lock()
	defer mu.Unlock()
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
		mu.Unlock()
		w.resume()
		mu.Lock()
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
	mu.Lock()
	defer mu.Unlock()
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
// mu must be held.
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

// park leaves the agent in state why on channel ch until a wake makes it
// runnable and the kernel resumes it. mu must be held.
func (a *Agent) park(why State, ch unsafe.Pointer) {
	a.state.Store(int32(why))
	a.on, a.next = ch, parked[ch]
	parked[ch] = a
	a.suspend()
}

// wake makes every agent parked on ch runnable at time at, its mark kept.
// mu must be held.
func wake(ch unsafe.Pointer, at Time) {
	for a := parked[ch]; a != nil; a = parked[ch] {
		unpark(a)
		a.resumeAt(at, Time(a.mark.Load()))
	}
}

// resumeAt makes a runnable at time at with mark m, each raised to its
// kernel's time. mu must be held.
func (a *Agent) resumeAt(at, m Time) {
	now := a.k.Now()
	a.mark.Store(int64(max(m, now)))
	a.state.Store(int32(Running))
	a.k.push(entry{a: a, at: max(at, now)})
}

// arrived accounts for a frame arriving at time at in ch, the inbox of to
// (nil: whoever is parked on it). Parked on ch, to becomes runnable at at
// with its mark there. Otherwise the frame waits in the inbox, and to's mark
// comes down to at, and so does its turn if it waits for one as a wake. mu
// must be held.
func arrived(to *Agent, ch unsafe.Pointer, at Time) {
	if to == nil || to.on == ch {
		for a := parked[ch]; a != nil; {
			next := a.next
			if a.State() == Inbox {
				unpark(a)
				a.resumeAt(at, at)
			}
			a = next
		}
		return
	}
	k := to.k
	if at = max(at, k.Now()); !to.started || to.State() == Done || int64(at) >= to.mark.Load() {
		return
	}
	to.mark.Store(int64(at))
	for i, e := range k.runq {
		if e.a == to {
			if e.stream == "" && e.at > at {
				k.runq = slices.Delete(k.runq, i, i+1)
				k.push(entry{a: to, at: at})
			}
			return
		}
	}
}

// unpark takes a out of the list of agents parked on its channel. mu must be
// held.
func unpark(a *Agent) {
	if q := parked[a.on]; q == a {
		if a.next == nil {
			delete(parked, a.on)
		} else {
			parked[a.on] = a.next
		}
	} else {
		for q.next != a {
			q = q.next
		}
		q.next = a.next
	}
	a.on, a.next = nil, nil
}

// chanKey is the identity of channel ch: the key its agents park under,
// whatever the channel's element type and direction.
func chanKey[T any](ch <-chan T) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&ch)) }

// Recv receives from ch for agent a, like v, ok := <-ch, on a buffered
// channel the kernel mediates (an inbox, a policy-clock tick): a value sent
// with Send, or followed by Wake, wakes the agent parked on it, and a
// receive from a full channel wakes the senders parked on its credit. A
// closed abort (a nil one never fires), then a ready value, is taken without
// parking; otherwise a parks in state why until one comes. ok is false when
// ch closed or abort fired, and at once if nothing is ready and why is
// Running. Whoever closes ch or abort while an agent may be parked wakes it
// (Wake, Agent.Interrupt). A nil agent blocks on the channel itself.
func Recv[T any](a *Agent, why State, ch <-chan T, abort <-chan struct{}) (v T, ok bool) {
	for {
		select {
		case <-abort:
			return v, false
		default:
		}
		select {
		case v, ok = <-ch:
			received(ch, ok, a.time())
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
			received(ch, ok, 0)
			return v, ok
		}
		mu.Lock()
		// A value sent since the check above found no parked agent to wake.
		select {
		case v, ok = <-ch:
			mu.Unlock()
			received(ch, ok, a.time())
			return v, ok
		default:
		}
		a.park(why, chanKey(ch))
		mu.Unlock()
	}
}

// received wakes the senders parked on ch's credit, at time at, when a
// receive found it full.
func received[T any](ch <-chan T, ok bool, at Time) {
	if ok && len(ch) == cap(ch)-1 {
		mu.Lock()
		wake(chanKey(ch), at)
		mu.Unlock()
	}
}

// Send sends v, arriving at virtual time at, on ch — the inbox of agent to
// (nil: unknown) — for agent a, parked on Credit while ch is full; the
// receiver learns of the arrival as arrived says. It reports false, not
// having sent, if abort closes first. A nil agent blocks on the channel
// itself.
func Send[T any](a, to *Agent, ch chan T, v T, at Time, abort <-chan struct{}) bool {
	for {
		select {
		case <-abort:
			return false
		default:
		}
		mu.Lock()
		select {
		case ch <- v:
			arrived(to, chanKey(ch), at)
			mu.Unlock()
			return true
		default:
		}
		if a == nil || a.w == nil {
			mu.Unlock()
			select {
			case ch <- v:
			case <-abort:
				return false
			}
			mu.Lock()
			arrived(to, chanKey(ch), at)
			mu.Unlock()
			return true
		}
		a.park(Credit, chanKey(ch))
		mu.Unlock()
	}
}

// Wake makes every agent parked on ch runnable: whoever sends on ch or
// closes it, or closes an abort channel its agents wait with, outside Send.
func Wake[T any](ch chan T) {
	mu.Lock()
	wake(chanKey(ch), 0)
	mu.Unlock()
}

// Interrupt makes the agent runnable if it is parked, so it looks at its
// abort channel again: a cancelled query's client drain or live stream,
// parked on a channel nobody will send on.
func (a *Agent) Interrupt() {
	if a == nil {
		return
	}
	mu.Lock()
	if a.on != nil {
		unpark(a)
		a.resumeAt(Time(a.mark.Load()), Time(a.mark.Load()))
	}
	mu.Unlock()
}

// Wait receives from a channel the kernel does not mediate — a test's gate,
// a socket's credit — for agent a: a goroutine of its own blocks on the
// channel while a is out of the kernel in state why, and a takes its turn
// again once a value comes or abort closes (ok is false then, or when ch
// closed).
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
	mu.Lock()
	a.state.Store(int32(why))
	go func() {
		select {
		case v, ok = <-ch:
		case <-abort:
		}
		mu.Lock()
		a.resumeAt(Time(a.mark.Load()), Time(a.mark.Load()))
		mu.Unlock()
	}()
	a.suspend()
	mu.Unlock()
	return v, ok
}

// time is the time a wake by a stamps: its mark, or zero for no process.
func (a *Agent) time() Time {
	if a == nil {
		return 0
	}
	return Time(a.mark.Load())
}
