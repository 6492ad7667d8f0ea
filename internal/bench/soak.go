package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"scsq/internal/chaos"
	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/sched"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// runSoak is the seeded chaos-soak figure: one full soak run per seed, every
// resilience feature armed (deadlines, shedding, retryable admission,
// crash/revive chaos, supervised replay probe). The full sizing runs the
// acceptance seed plus two independent ones; Tiny runs the acceptance seed
// alone. A run that violates a terminal invariant (leaked lease, leaked
// goroutine, accounting drift, inexact replay) is an error, not a row: the
// figure doubles as an assertion.
func runSoak(s Sizing) ([]Point, error) {
	seeds := []int64{42, 7, 11}
	if s.Tiny {
		seeds = seeds[:1]
	}
	var pts []Point
	for _, seed := range seeds {
		res, err := soak(defaultSoakConfig(seed))
		if err != nil {
			return nil, fmt.Errorf("soak seed %d: %w", seed, err)
		}
		if err := res.check(); err != nil {
			return nil, fmt.Errorf("soak seed %d invariants: %w", seed, err)
		}
		x := strconv.FormatInt(seed, 10)
		n := func(series string, v int) Point { return reading(x, series, "count", float64(v)) }
		pts = append(pts,
			n("sessions", res.Sessions), n("done", res.Tally.Done), n("failed", res.Tally.Failed),
			n("cancelled", res.Tally.Cancelled), n("expired", res.Tally.Expired), n("shed", res.Tally.Shed),
			n("rejected", res.Tally.Rejected), n("retries", int(res.Retries)),
			reading(x, "wait-p50", "us", float64(res.QueueWaitP50.Microseconds())),
			reading(x, "wait-p99", "us", float64(res.QueueWaitP99.Microseconds())),
			reading(x, "wall", "ms", float64(res.Wall.Microseconds())/1e3))
	}
	return pts, nil
}

// soakBGNodes is the soak partition size: a 2×2×2 torus, small enough that
// one gated hog pins it whole and rounds stay fast, large enough for victim
// placements to collide in interesting ways.
const soakBGNodes = 8

// soakConfig parameterizes one soak run. The zero value is not runnable;
// use defaultSoakConfig as a base.
type soakConfig struct {
	Seed    int64
	Rounds  int
	Victims int // priority-0 sessions submitted per round
	Extras  int // priority-1 sessions submitted into the full queue (shed drivers)

	QueueCap  int  // admission queue capacity
	Chaos     bool // barriered node kills (plus revival) per round
	Deadlines bool // queue TTLs on some victims, run TTLs on some hogs
	Shedding  bool // priority load shedding
	Retry     bool // transient-admission retry with vtime backoff
	RateFault bool // frame delay faults on top of the crash schedule

	ReplayProbe bool // run the supervised exactly-once replay check

	// DrainTimeout bounds the wall-clock wait for a round to reach
	// all-terminal (default 30s). A timeout fails the run: it means a
	// session leaked out of the state machine.
	DrainTimeout time.Duration
}

// defaultSoakConfig is the acceptance-test configuration: ≥200 sessions with
// chaos, deadlines, shedding and retry all on.
func defaultSoakConfig(seed int64) soakConfig {
	return soakConfig{
		Seed:        seed,
		Rounds:      12,
		Victims:     14,
		Extras:      2,
		QueueCap:    14,
		Chaos:       true,
		Deadlines:   true,
		Shedding:    true,
		Retry:       true,
		ReplayProbe: true,
	}
}

// soakTally counts terminal session states. It is the determinism witness:
// same seed, same tally.
type soakTally struct {
	Done, Failed, Cancelled, Expired, Shed int
	Rejected                               int // submissions refused at the queue (no session)
}

// soakResult is one soak run's outcome and invariant audit.
type soakResult struct {
	Sessions int // sessions successfully submitted (hogs + victims + extras)
	Tally    soakTally
	Retries  int64 // sched.retried counter at the end

	LeakedLeases   int  // cndb leases still held at the end (want 0)
	GoroutineDelta int  // goroutines alive beyond the baseline (want ≤0)
	AccountingOK   bool // per-owner vtime busy sums equal resource totals

	ReplayRan    bool
	ReplayExact  bool  // crash replay delivered the exact expected count
	Replacements int64 // supervisor replacements during the probe (want 1)

	QueueWaitP50 time.Duration // wall-clock admission waits, admitted sessions
	QueueWaitP99 time.Duration
	Wall         time.Duration
}

// check returns an error describing every violated terminal invariant, nil
// when the run is clean.
func (r *soakResult) check() error {
	var bad []string
	if r.LeakedLeases != 0 {
		bad = append(bad, fmt.Sprintf("%d leaked cndb leases", r.LeakedLeases))
	}
	if r.GoroutineDelta > 0 {
		bad = append(bad, fmt.Sprintf("%d leaked goroutines", r.GoroutineDelta))
	}
	if !r.AccountingOK {
		bad = append(bad, "vtime owner accounting does not sum to busy time")
	}
	if r.ReplayRan && !r.ReplayExact {
		bad = append(bad, "supervised replay was not exactly-once")
	}
	if got := r.Tally.Done + r.Tally.Failed + r.Tally.Cancelled + r.Tally.Expired + r.Tally.Shed; got != r.Sessions {
		bad = append(bad, fmt.Sprintf("terminal states %d != sessions %d", got, r.Sessions))
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("soak: %v", bad)
}

// gateSource is the per-round barrier: every hog stream process blocks in
// Next on the armed channel until the driver releases the round. An RP that
// opens after the release (or before any arm) sees a nil channel and ends
// immediately — it can no longer be pinning anything the round cares about.
type gateSource struct {
	mu     sync.Mutex
	ch     chan struct{}
	parked int // gate RPs that built their source while the gate was armed
}

func (g *gateSource) arm() {
	g.mu.Lock()
	g.ch = make(chan struct{})
	g.parked = 0
	g.mu.Unlock()
}

func (g *gateSource) release() {
	g.mu.Lock()
	if g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
	g.mu.Unlock()
}

func (g *gateSource) operator(*sqep.Ctx) sqep.Operator {
	g.mu.Lock()
	ch := g.ch
	if ch != nil {
		g.parked++ // source build runs on the RP goroutine, so Start happened
	}
	g.mu.Unlock()
	return &gateOp{ch: ch}
}

// pinned reports how many gate RPs of the current round have started and
// built their gated source. The driver barriers on it before any phase that
// assumes the hog's processes exist: RP starts are lazy (they happen when
// the session's stream begins draining), so without the barrier a chaos kill
// can race the hog's startup window and the round outcome stops being a
// function of the seed.
func (g *gateSource) pinned() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.parked
}

// gateOp waits for the release outside the kernel (vtime.Wait), so the
// processes of other sessions keep their turns meanwhile.
type gateOp struct {
	ch    <-chan struct{}
	agent *vtime.Agent
}

func (o *gateOp) Open(ctx *sqep.Ctx) error {
	if ctx != nil {
		o.agent = ctx.Agent
	}
	return nil
}

func (o *gateOp) Next() (sqep.Element, bool, error) {
	if o.ch != nil {
		vtime.Wait(o.agent, vtime.Tick, o.ch, nil)
		o.ch = nil
	}
	return sqep.Element{}, false, nil
}
func (o *gateOp) Close() error { return nil }

// hogSrc pins the whole BlueGene partition: bindings resolve in dependency
// order, so the n-1 gated receivers bind first and urr hands them nodes
// 0..n-2; the counter then takes the last node explicitly.
func hogSrc() string {
	return fmt.Sprintf(`
select extract(c) from
bag of sp a, sp c, integer n
where c=sp(streamof(count(merge(a))), 'bg', %d)
and   a=spv((select receiver('gate') from integer i where i in iota(1,n)), 'bg', urr('bg'))
and   n=%d;`, soakBGNodes-1, soakBGNodes-1)
}

// victimSrc is a two-node point-to-point query on a prescribed node pair, so
// its placement — and therefore any chaos coordinates it meets — does not
// depend on which other sessions happen to have completed first.
func victimSrc(from, to int) string {
	return fmt.Sprintf(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', %d)
and   a=sp(gen_array(30000,2), 'bg', %d);`, to, from)
}

// soak is the seeded chaos soak harness: it drives many concurrent
// scheduler sessions through submission, cancellation, virtual-time expiry,
// priority shedding, transient-admission retry and barriered node crashes,
// then audits the terminal invariants the resilience layer promises:
//
//   - every session reaches a terminal state;
//   - no cndb lease outlives its session (zero leaked reservations);
//   - every virtual-time resource's per-owner busy accounting still sums to
//     its total busy time;
//   - no goroutine outlives the run;
//   - supervised replay after a crash delivers results exactly once.
//
// Determinism: the schedule — which sessions are submitted with which node
// pairs, TTLs and priorities, which are cancelled, which node is killed — is
// a pure function of soakConfig.Seed, and every policy decision the scheduler
// makes runs on its virtual clock. Rounds are barriered: a gate-blocked hog
// query pins the entire BlueGene partition, so nothing progresses and the
// driver's ticks alone move the clock while victims are provably still
// queued and the driver cancels, sheds or expires them; only after those
// phases does the round release the gate and let the survivors run (and
// their own progress tick the clock). Two runs with the same seed therefore
// produce the identical terminal-state tally, whatever the wall-clock
// interleaving.
func soak(cfg soakConfig) (*soakResult, error) {
	if cfg.Rounds <= 0 || cfg.Victims <= 0 {
		return nil, fmt.Errorf("soak: config needs positive Rounds and Victims")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = cfg.Victims
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	start := time.Now()
	baseline := runtime.NumGoroutine()

	env, err := hw.NewLOFAR(hw.Config{Torus: [3]int{2, 2, 2}, PsetSize: 4, BackEndNodes: 2, FrontEndNodes: 1})
	if err != nil {
		return nil, err
	}
	var chaosOpts []chaos.Option
	if cfg.RateFault {
		// Delay faults stretch schedules without dropping content, so the
		// terminal tally stays a pure function of the seed.
		chaosOpts = append(chaosOpts, chaos.DelayRate(0.05, 200*vtime.Microsecond))
	}
	inj := chaos.New(cfg.Seed, chaosOpts...)
	gate := &gateSource{}
	// Supervision is required for node kills to propagate: a dead producer
	// cannot send its own Down frames, so the supervisor either re-places it
	// or poisons its downstream inboxes. With the partition fully pinned the
	// re-placement has nowhere to land, so a killed hog deterministically
	// fails rather than recovers.
	budget := 2
	eng, err := core.NewEngine(core.Config{Env: env, Chaos: inj, Supervision: &budget,
		Sources: map[string]sqep.SourceFunc{"gate": gate.operator}})
	if err != nil {
		return nil, err
	}

	schedCfg := sched.Config{QueueCap: cfg.QueueCap, LoadShedding: cfg.Shedding}
	if cfg.Retry {
		schedCfg.AdmissionRetry = sched.AdmissionRetryPolicy{
			MaxRetries: 8,
			Base:       vtime.Millisecond,
			Max:        8 * vtime.Millisecond,
		}
	}
	s := sched.New(eng, nil, schedCfg)

	res := &soakResult{}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// tick lets d of virtual time pass from wherever the clock stands — the
	// previous round's sessions moved it too — in a turn of its own, as the
	// engine's processes tick it in theirs.
	tick := func(d vtime.Duration) {
		env.Kernel().Pause()
		s.ObserveVTime(s.VNow().Add(d))
		env.Kernel().Resume()
	}
	const maxTTL = 4 * vtime.Millisecond

	var all []*sched.Query
	var waits []time.Duration
	runErr := func() error {
		for r := 0; r < cfg.Rounds; r++ {
			gate.arm()
			var round []*sched.Query

			// Phase 1: the hog pins the whole partition. In deadline rounds
			// it sometimes carries a run TTL and expires mid-round instead of
			// completing — either way the gate is released at the barrier.
			var hogCfg sched.SubmitConfig
			hogExpires := cfg.Deadlines && rng.Intn(3) == 0
			if hogExpires {
				hogCfg.RunTTL = maxTTL / 2
			}
			hog, err := s.Submit(hogSrc(), hogCfg)
			if err != nil {
				return fmt.Errorf("round %d: submit hog: %w", r, err)
			}
			round = append(round, hog)
			for gate.pinned() < soakBGNodes-1 {
				if st := hog.State(); st.Final() {
					return fmt.Errorf("round %d: hog %v before pinning: %v", r, st, hog.Err())
				}
				time.Sleep(50 * time.Microsecond)
			}

			// Phase 2: victims on prescribed node pairs; all queue behind
			// the hog. Some carry queue TTLs.
			for v := 0; v < cfg.Victims; v++ {
				from := rng.Intn(soakBGNodes)
				to := (from + 1 + rng.Intn(soakBGNodes-1)) % soakBGNodes
				var victimCfg sched.SubmitConfig
				if cfg.Deadlines && rng.Intn(3) == 0 {
					victimCfg.QueueTTL = vtime.Duration(1+rng.Intn(int(maxTTL/vtime.Millisecond))) * vtime.Millisecond
				}
				q, err := s.Submit(victimSrc(from, to), victimCfg)
				if err != nil {
					if !errors.Is(err, sched.ErrQueueFull) {
						return fmt.Errorf("round %d: submit victim: %w", r, err)
					}
					res.Tally.Rejected++
					continue
				}
				round = append(round, q)
			}

			// Phase 3: priority-1 extras hit the queue while it is still
			// full; with shedding on each one evicts the youngest queued
			// priority-0 victim, with shedding off it is refused outright.
			for x := 0; x < cfg.Extras; x++ {
				from := rng.Intn(soakBGNodes)
				to := (from + 1 + rng.Intn(soakBGNodes-1)) % soakBGNodes
				q, err := s.Submit(victimSrc(from, to), sched.SubmitConfig{Priority: 1})
				if err != nil {
					if !errors.Is(err, sched.ErrQueueFull) {
						return fmt.Errorf("round %d: submit extra: %w", r, err)
					}
					res.Tally.Rejected++
					continue
				}
				round = append(round, q)
			}

			// Phase 4: cancel a seeded subset of the round's sessions while
			// they are provably queued (cancelling an already-shed session is
			// a deliberate no-op: the driver races real clients do).
			for _, q := range round[1:] {
				if rng.Intn(4) == 0 {
					_ = s.Cancel(q.ID())
				}
			}

			// Phase 5: expire. One tick past the longest TTL fires every
			// queue deadline of this round (and the hog's run deadline, if
			// armed) — all affected sessions are still queued/running
			// because the partition is still pinned.
			if cfg.Deadlines {
				tick(maxTTL + vtime.Millisecond)
			}

			// Phase 6: barriered crash. Killing any node fails the RPs the
			// hog has there (it has one everywhere) and clears their leases.
			// The node is revived BEFORE the gate opens: a killed gate stays
			// blocked in its source until the barrier drops, so its exit —
			// and the supervisor's replace-or-poison decision — happens
			// after release, racing other gates' lease frees. With the node
			// already revived and vacant, re-placement deterministically
			// finds capacity (the revived node at worst), so the decision no
			// longer depends on that race; a killed counter node is the
			// unrecoverable case and deterministically poisons instead.
			// The kill is skipped in hog-expiring rounds: there the hog's
			// leases freed at the phase-5 tick, victims are already running,
			// and a killed victim source's replace decision would race the
			// adjacent revive — the barrier argument needs the hog still
			// pinning the partition when the node dies. hogExpires is
			// seed-pure, so the skip is too.
			killed := -1
			if cfg.Chaos && !hogExpires && rng.Intn(2) == 0 {
				killed = 1 + rng.Intn(soakBGNodes-1)
				inj.KillNode(hw.BlueGene, killed)
				if err := eng.ReviveNode(hw.BlueGene, killed); err != nil {
					return fmt.Errorf("round %d: revive: %w", r, err)
				}
			}

			// Barrier: release the gate and drain the round.
			gate.release()
			deadline := time.Now().Add(cfg.DrainTimeout)
			for {
				live := 0
				for _, q := range round {
					if !q.State().Final() {
						live++
					}
				}
				if live == 0 {
					break
				}
				if time.Now().After(deadline) {
					var states []string
					for _, q := range round {
						if st := q.State(); !st.Final() {
							states = append(states, fmt.Sprintf("%s=%v", q.ID(), st))
						}
					}
					return fmt.Errorf("round %d: %d sessions not terminal after %v: %v", r, live, cfg.DrainTimeout, states)
				}
				tick(vtime.Millisecond) // promotes parked retries
				time.Sleep(200 * time.Microsecond)
			}
			all = append(all, round...)
		}
		return nil
	}()

	for _, q := range all {
		res.Sessions++
		switch q.State() {
		case sched.Done:
			res.Tally.Done++
		case sched.Failed:
			res.Tally.Failed++
		case sched.Cancelled:
			res.Tally.Cancelled++
		case sched.Expired:
			res.Tally.Expired++
		case sched.Shed:
			res.Tally.Shed++
		}
		if w := q.AdmissionWait(); w > 0 {
			waits = append(waits, w)
		}
		res.LeakedLeases += eng.LeaseCount(q.ID())
	}
	res.Retries = eng.MetricsSnapshot().Counters["sched.retried"]
	slices.Sort(waits)
	res.QueueWaitP50, res.QueueWaitP99 = percentileDur(waits, 0.50), percentileDur(waits, 0.99)

	res.AccountingOK = true
	for _, rsc := range env.Resources() {
		var sum vtime.Duration
		for _, d := range rsc.OwnerBusy() {
			sum += d
		}
		if sum != rsc.BusyTime() {
			res.AccountingOK = false
		}
	}

	_ = s.Close()
	gate.release() // idempotent; frees any straggling gate RP
	closeErr := eng.Close()

	if cfg.ReplayProbe && runErr == nil {
		ran, exact, repl, err := replayProbe(cfg.Seed)
		res.ReplayRan, res.ReplayExact, res.Replacements = ran, exact, repl
		if err != nil && runErr == nil {
			runErr = err
		}
	}

	// Let transient goroutines (drains, kernel workers, NodeDied kicks) unwind.
	for i := 0; i < 100 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	res.GoroutineDelta = runtime.NumGoroutine() - baseline
	res.Wall = time.Since(start)
	if runErr == nil && closeErr != nil {
		runErr = closeErr
	}
	return res, runErr
}

// replayProbe runs the supervised exactly-once check on a fresh engine: a
// recoverable generator is crashed after two sends; the supervisor must
// re-place it and replay from the recorded offset so the counter still sees
// every element exactly once.
func replayProbe(seed int64) (ran, exact bool, replacements int64, err error) {
	const src = `
select extract(c) from
bag of sp a, sp c
where c=sp(streamof(count(merge(a))), 'bg', 8)
and   a=spv((select gen_array(30000,6) from integer i where i in iota(1,2)), 'bg', inPset(0));`
	inj := chaos.New(seed, chaos.CrashAfterSends(hw.BlueGene, 0, 2))
	budget := 2
	eng, err := core.NewEngine(core.Config{Chaos: inj, Supervision: &budget})
	if err != nil {
		return false, false, 0, err
	}
	defer eng.Close()
	s := sched.New(eng, nil)
	defer s.Close()
	q, err := s.Submit(src)
	if err != nil {
		return true, false, 0, fmt.Errorf("soak: replay probe submit: %w", err)
	}
	els, err := q.Wait()
	if err != nil {
		return true, false, 0, fmt.Errorf("soak: replay probe did not recover: %w", err)
	}
	var got any
	if len(els) > 0 {
		got = els[len(els)-1].Value
	}
	repl := eng.MetricsSnapshot().Counters["supervisor.replacements"]
	return true, got == int64(12) && repl == 1, repl, nil
}
