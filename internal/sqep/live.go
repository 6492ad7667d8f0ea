package sqep

import "scsq/internal/vtime"

// DeltaPoll is the live form of a Thunk: a stream of system-catalog rows
// that keeps running. Open captures a full initial snapshot; afterwards,
// each tick on the pacing channel triggers a re-snapshot and only rows
// whose value fingerprint was not present in the previous snapshot are
// emitted — a live-delta stream. The tick source is the scheduler's
// virtual policy clock (sched.SubscribeVTime), which the engine's own
// progress advances, so observation is paced by the simulation's own clock
// and emits nothing while virtual time stands still. Closing the tick
// channel ends the stream cleanly.
//
// Like Thunk, elements carry zero timestamps: reading system state takes
// no modeled time, which is half of the non-perturbation contract (the
// other half is that snapshot providers never block the processes whose
// elements tick the clock).
type DeltaPoll struct {
	// Label names the operator in errors and plan dumps.
	Label string
	// Snap captures the current rows and their value fingerprints; keys[i]
	// must identify rows[i]. It runs once at Open and once per tick.
	Snap func() (rows []any, keys []string, err error)
	// Tick paces re-snapshots; a closed channel terminates the stream.
	Tick <-chan struct{}
	// Stop releases the tick subscription; called once, at Close.
	Stop func()

	// cancel is the owning query's signal (Ctx.Cancel, read at Open): the
	// stream blocks on Tick indefinitely, and a query with no stream
	// processes to poison (a pure client-plan streamof(sys_*())) is reached
	// by nothing else. Nil — no query to cancel — never fires. agent
	// (Ctx.Agent) parks on Tick, which the scheduler wakes it on in the turn
	// of the process whose progress ticked.
	cancel CancelSignal
	agent  *vtime.Agent
	queue  []Element
	seen   map[string]bool
	done   bool
}

var _ Operator = (*DeltaPoll)(nil)

// NewDeltaPoll returns a live-delta stream over snap paced by tick.
func NewDeltaPoll(label string, snap func() ([]any, []string, error), tick <-chan struct{}, stop func()) *DeltaPoll {
	return &DeltaPoll{Label: label, Snap: snap, Tick: tick, Stop: stop}
}

// Open implements Operator: it emits the initial full snapshot, so a
// bounded consumer (limit(streamof(...), n)) can terminate without any
// virtual time passing.
func (d *DeltaPoll) Open(ctx *Ctx) error {
	if ctx != nil {
		d.cancel, d.agent = ctx.Cancel, ctx.Agent
	}
	d.queue = d.queue[:0]
	d.seen = make(map[string]bool)
	d.done = false
	return d.poll()
}

// poll re-snapshots and queues rows absent from the previous snapshot. The
// seen set is replaced wholesale: a row that changes value (new key) or
// disappears and comes back re-emits.
func (d *DeltaPoll) poll() error {
	rows, keys, err := d.Snap()
	if err != nil {
		return err
	}
	next := make(map[string]bool, len(rows))
	for i, v := range rows {
		k := keys[i]
		next[k] = true
		if !d.seen[k] {
			d.queue = append(d.queue, Element{Value: v})
		}
	}
	d.seen = next
	return nil
}

// Next implements Operator: drain queued rows, else block for the next
// virtual-time tick and re-poll. Ticks that produce no delta are absorbed
// here rather than emitting empty batches. A cancelled query ends the
// stream with the planted cause.
func (d *DeltaPoll) Next() (Element, bool, error) {
	var cancelled <-chan struct{}
	if d.cancel != nil {
		cancelled = d.cancel.Done()
	}
	for {
		if len(d.queue) > 0 {
			el := d.queue[0]
			d.queue = d.queue[1:]
			return el, true, nil
		}
		if d.done {
			return Element{}, false, nil
		}
		if _, ok := vtime.Recv(d.agent, vtime.Tick, d.Tick, cancelled); !ok {
			// Tick closed, a clean end, unless the query was cancelled:
			// then the planted cause ends the stream.
			d.done = true
			if d.cancel != nil {
				return Element{}, false, d.cancel.Cause()
			}
			return Element{}, false, nil
		}
		if err := d.poll(); err != nil {
			return Element{}, false, err
		}
	}
}

// Close implements Operator.
func (d *DeltaPoll) Close() error {
	if d.Stop != nil {
		d.Stop()
		d.Stop = nil
	}
	return nil
}
