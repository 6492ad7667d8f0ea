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
// failure path armed (cancels, node kills, a full admission queue). The full
// sizing runs the acceptance seed plus two independent ones; Tiny runs the
// acceptance seed alone. A run that violates a terminal invariant (leaked
// lease, leaked goroutine, accounting drift) is an error, not a row: the
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
			n("cancelled", res.Tally.Cancelled), n("rejected", res.Tally.Rejected),
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
	Victims int // sessions submitted per round behind the hog

	QueueCap  int  // admission queue capacity; victims beyond it are refused
	Chaos     bool // barriered node kills per round
	RateFault bool // frame delay faults on top of the crash schedule

	// DrainTimeout bounds the wall-clock wait for a round to reach
	// all-terminal (default 30s). A timeout fails the run: it means a
	// session leaked out of the state machine.
	DrainTimeout time.Duration
}

// defaultSoakConfig is the acceptance-test configuration: ≥200 sessions with
// chaos on and a full queue in every round.
func defaultSoakConfig(seed int64) soakConfig {
	return soakConfig{
		Seed:     seed,
		Rounds:   12,
		Victims:  18,
		QueueCap: 16,
		Chaos:    true,
	}
}

// soakTally counts terminal session states. It is the determinism witness:
// same seed, same tally.
type soakTally struct {
	Done, Failed, Cancelled int
	Rejected                int // submissions refused at the queue (no session)
}

// soakResult is one soak run's outcome and invariant audit.
type soakResult struct {
	Sessions int // sessions successfully submitted (hogs + victims + extras)
	Tally    soakTally

	LeakedLeases   int  // cndb leases still held at the end (want 0)
	GoroutineDelta int  // goroutines alive beyond the baseline (want ≤0)
	AccountingOK   bool // per-owner vtime busy sums equal resource totals

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
	if got := r.Tally.Done + r.Tally.Failed + r.Tally.Cancelled; got != r.Sessions {
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
// scheduler sessions through submission, refusal at a full queue,
// cancellation and barriered node crashes, then audits the terminal
// invariants every failure path promises:
//
//   - every session reaches a terminal state;
//   - no cndb lease outlives its session (zero leaked reservations);
//   - every virtual-time resource's per-owner busy accounting still sums to
//     its total busy time;
//   - no goroutine outlives the run.
//
// Each round runs on an engine, scheduler and injector of its own, so a node
// killed in a round stays dead until the round ends and the next round
// starts on a whole partition.
//
// Determinism: the schedule — which sessions are submitted with which node
// pairs, which are cancelled, which node is killed — is a pure function of
// soakConfig.Seed. Rounds are barriered: a gate-blocked hog query pins the
// entire BlueGene partition, so nothing progresses while victims are
// provably still queued and the harness fills the queue, cancels and kills;
// only after those phases does the round release the gate and let the
// survivors run. Two runs with the same seed therefore produce the identical
// terminal-state tally, whatever the wall-clock interleaving.
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

	res := &soakResult{AccountingOK: true}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var waits []time.Duration
	var runErr error
	for r := 0; r < cfg.Rounds && runErr == nil; r++ {
		runErr = soakRound(cfg, r, rng, res, &waits)
	}
	slices.Sort(waits)
	res.QueueWaitP50, res.QueueWaitP99 = percentileDur(waits, 0.50), percentileDur(waits, 0.99)

	// Let transient goroutines (drains, kernel workers) unwind.
	for i := 0; i < 100 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	res.GoroutineDelta = runtime.NumGoroutine() - baseline
	res.Wall = time.Since(start)
	return res, runErr
}

// soakRound runs round r of the soak on an engine of its own, adding its
// sessions' terminal states, leases, admission waits and accounting to res.
func soakRound(cfg soakConfig, r int, rng *rand.Rand, res *soakResult, waits *[]time.Duration) error {
	env, err := hw.NewLOFAR(hw.Config{Torus: [3]int{2, 2, 2}, PsetSize: 4, BackEndNodes: 2, FrontEndNodes: 1})
	if err != nil {
		return err
	}
	var chaosOpts []chaos.Option
	if cfg.RateFault {
		// Delay faults stretch schedules without dropping content, so the
		// terminal tally stays a pure function of the seed.
		chaosOpts = append(chaosOpts, chaos.DelayRate(0.05, 200*vtime.Microsecond))
	}
	inj := chaos.New(cfg.Seed, chaosOpts...)
	gate := &gateSource{}
	eng, err := core.NewEngine(core.Config{Env: env, Chaos: inj,
		Sources: map[string]sqep.SourceFunc{"gate": gate.operator}})
	if err != nil {
		return err
	}
	s := sched.New(eng, nil, sched.Config{QueueCap: cfg.QueueCap})

	var round []*sched.Query
	runErr := func() error {
		gate.arm()

		// Phase 1: the hog pins the whole partition until the barrier
		// releases the gate.
		hog, err := s.Submit(hogSrc())
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

		// Phase 2: victims on prescribed node pairs, all queued behind
		// the hog until the queue is full; the rest are refused.
		for v := 0; v < cfg.Victims; v++ {
			from := rng.Intn(soakBGNodes)
			to := (from + 1 + rng.Intn(soakBGNodes-1)) % soakBGNodes
			q, err := s.Submit(victimSrc(from, to))
			if err != nil {
				if !errors.Is(err, sched.ErrQueueFull) {
					return fmt.Errorf("round %d: submit victim: %w", r, err)
				}
				res.Tally.Rejected++
				continue
			}
			round = append(round, q)
		}

		// Phase 3: cancel a seeded subset of the round's sessions while
		// they are provably queued.
		for _, q := range round[1:] {
			if rng.Intn(4) == 0 {
				_ = s.Cancel(q.ID())
			}
		}

		// Phase 4: barriered crash. Killing any node fails the RP the hog
		// has there (it has one everywhere), and so the hog, and the node
		// stays dead for the rest of the round: a victim placed on it fails
		// its admission once nothing else runs.
		if cfg.Chaos && rng.Intn(2) == 0 {
			inj.KillNode(hw.BlueGene, 1+rng.Intn(soakBGNodes-1))
		}

		// Barrier: release the gate and drain the round.
		gate.release()
		timeout := time.After(cfg.DrainTimeout)
		for _, q := range round {
			select {
			case <-q.Done():
			case <-timeout:
				var states []string
				for _, q := range round {
					if st := q.State(); !st.Final() {
						states = append(states, fmt.Sprintf("%s=%v", q.ID(), st))
					}
				}
				return fmt.Errorf("round %d: %d sessions not terminal after %v: %v", r, len(states), cfg.DrainTimeout, states)
			}
		}
		return nil
	}()

	for _, q := range round {
		res.Sessions++
		switch q.State() {
		case sched.Done:
			res.Tally.Done++
		case sched.Failed:
			res.Tally.Failed++
		case sched.Cancelled:
			res.Tally.Cancelled++
		}
		if w := q.AdmissionWait(); w > 0 {
			*waits = append(*waits, w)
		}
		res.LeakedLeases += eng.LeaseCount(q.ID())
	}
	k := env.Kernel()
	k.Lock()
	for _, rsc := range env.Resources() {
		var sum vtime.Duration
		for _, d := range rsc.OwnerBusy() {
			sum += d
		}
		if sum != rsc.BusyTime() {
			res.AccountingOK = false
		}
	}
	k.Unlock()

	_ = s.Close()
	gate.release() // idempotent; frees any straggling gate RP
	if err := eng.Close(); runErr == nil {
		runErr = err
	}
	return runErr
}

// percentileDur reads the p-quantile from an ascending sample slice.
func percentileDur(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
