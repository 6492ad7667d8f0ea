package bench

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"scsq/internal/carrier"
	"scsq/internal/core"
	"scsq/internal/scsql"
	"scsq/internal/vtime"
)

// Where do two runs of one statement first part ways? Every resource records
// its grants, each keyed by the request's (owner, stream, seq) — functions of
// the plan — so one request can be paired across two runs whatever order
// either run submitted it in.

// grantKey names one request: its owner, its stream and its position there.
type grantKey struct {
	owner, stream string
	seq           uint64
}

func (k grantKey) String() string { return fmt.Sprintf("(%s, %s, #%d)", k.owner, k.stream, k.seq) }

func (k grantKey) compare(o grantKey) int {
	return cmp.Or(cmp.Compare(k.owner, o.owner), cmp.Compare(k.stream, o.stream), cmp.Compare(k.seq, o.seq))
}

// grant is one reservation a resource granted, as its recorder saw it.
type grant struct {
	key        grantKey
	ready      vtime.Time
	service    vtime.Duration
	start, end vtime.Time
}

func (g grant) String() string {
	return fmt.Sprintf("ready %d service %d granted %d", g.ready, g.service, g.start)
}

// recordGrants runs the statement src on a fresh engine built with opts,
// with a recorder on every resource of its environment, and returns each
// resource's grants sorted by (start, key), keyed by resource name.
func recordGrants(src string, opts ...core.Option) (map[string][]grant, error) {
	e, err := core.NewEngine(opts...)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	rs := e.Env().Resources()
	logs := make([][]grant, len(rs))
	for i, r := range rs {
		r.SetRecorder(func(owner string, q vtime.Request) {
			logs[i] = append(logs[i], grant{grantKey{owner, q.Stream, q.Seq}, q.Ready, q.Service, q.Start, q.End})
		})
	}
	res, err := scsql.NewEvaluator(e, nil).Exec(src)
	if err != nil {
		return nil, err
	}
	if _, err := res.Stream.Drain(); err != nil {
		return nil, err
	}
	out := make(map[string][]grant, len(rs))
	for i, r := range rs {
		r.SetRecorder(nil)
		slices.SortFunc(logs[i], func(a, b grant) int {
			return cmp.Or(cmp.Compare(a.start, b.start), a.key.compare(b.key))
		})
		out[r.Name()] = logs[i]
	}
	return out, nil
}

// firstGrantDivergence runs src twice on fresh engines, pairs each request of
// the first run with the same-keyed request of the second, and describes the
// earliest pair, by start time, that was granted differently (or requested in
// one run only) — "" when every request was granted identically.
func firstGrantDivergence(src string, opts ...core.Option) (string, error) {
	a, err := recordGrants(src, opts...)
	if err != nil {
		return "", err
	}
	b, err := recordGrants(src, opts...)
	if err != nil {
		return "", err
	}
	first, firstAt := "", vtime.Time(0)
	note := func(at vtime.Time, d string) {
		if first == "" || at < firstAt || (at == firstAt && d < first) {
			first, firstAt = d, at
		}
	}
	for name, ga := range a {
		// A key that repeats (it should not) pairs its occurrences in start
		// order.
		inB := make(map[grantKey][]grant)
		for _, y := range b[name] {
			inB[y.key] = append(inB[y.key], y)
		}
		for _, x := range ga {
			ys := inB[x.key]
			if len(ys) == 0 {
				note(x.start, fmt.Sprintf("%s: %s %s in run 1; not requested in run 2", name, x.key, x))
				continue
			}
			y := ys[0]
			inB[x.key] = ys[1:]
			if x != y {
				note(min(x.start, y.start), fmt.Sprintf("%s: %s %s in run 1; %s in run 2", name, x.key, x, y))
			}
		}
		for _, ys := range inB {
			for _, y := range ys {
				note(y.start, fmt.Sprintf("%s: %s not requested in run 1; %s in run 2", name, y.key, y))
			}
		}
	}
	return first, nil
}

// TestFigure6GrantsIdentical: one Figure 6 point — a single producer, the
// figure that has always been byte-stable — grants the identical schedule on
// every resource in two runs, on one core and on two.
func TestFigure6GrantsIdentical(t *testing.T) {
	src := scsql.Figure5Query(300_000, 20)
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		d, err := firstGrantDivergence(src, core.Config{MPIBufferBytes: 30_000})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if d != "" {
			t.Errorf("GOMAXPROCS=%d: the two runs diverge at %s", procs, d)
		}
	}
}

// TestGrantKeysArePlanFunctions: at two points where concurrent streams
// share a device (DESIGN §11), and in the two plan shapes where keys could
// repeat, neither the requests nor their grants differ between runs. Each
// resource sees the same multiset of (owner, stream, seq) keys in both runs,
// no key repeats on a resource, and every grant carries an owner and a
// stream — so a request can be paired across runs, and the kernel breaks
// ties by its key — and the two runs grant the identical schedule.
func TestGrantKeysArePlanFunctions(t *testing.T) {
	inbound, err := scsql.InboundQuery(1, 2, 60_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		procs int
		src   string
		opts  []core.Option
	}{
		{"figure8-bal-single-30kB", 1, scsql.MergeQuery(1, 4, 300_000, 20),
			[]core.Option{core.Config{MPIBufferBytes: 30_000, Buffering: carrier.SingleBuffered}}},
		{"multitenant-k1", 2, inbound, nil},
		// A producer with two subscriber links: both links' frames cross its
		// co-processor.
		{"two-subscribers", 1, `
select merge({b,c}) from sp a, sp b, sp c
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   c=sp(streamof(count(extract(a))), 'bg', 2)
and   a=sp(gen_array(30000,10), 'bg', 1);`, []core.Option{core.Config{MPIBufferBytes: 10_000}}},
		// A producer feeding a consumer on its own node: its CPU requests and
		// the consumer's de-marshals share one CPU.
		{"same-node-consumer", 1, `
select extract(b) from sp a, sp b
where b=sp(streamof(count(extract(a))), 'be', 1)
and   a=sp(gen_array(30000,10), 'be', 1);`, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			a, err := recordGrants(c.src, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			b, err := recordGrants(c.src, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			keys := func(gs []grant) []grantKey {
				ks := make([]grantKey, len(gs))
				for i, g := range gs {
					ks[i] = g.key
				}
				slices.SortFunc(ks, grantKey.compare)
				return ks
			}
			granted := 0
			for name, ga := range a {
				ka, kb := keys(ga), keys(b[name])
				if !slices.Equal(ka, kb) {
					t.Errorf("%s: %d requests in run 1, %d in run 2, with different keys", name, len(ka), len(kb))
				}
				for i := 1; i < len(ka); i++ {
					if ka[i] == ka[i-1] {
						t.Errorf("%s: key %s repeats", name, ka[i])
					}
				}
				for _, k := range ka {
					if k.owner == "" || k.stream == "" {
						t.Errorf("%s: grant %s has no owner or no stream", name, k)
					}
				}
				granted += len(ga)
			}
			if granted == 0 {
				t.Fatal("no resource recorded a grant")
			}
			if d, err := firstGrantDivergence(c.src, c.opts...); err != nil {
				t.Fatal(err)
			} else if d != "" {
				t.Errorf("the two runs diverge at %s", d)
			}
		})
	}
}

// TestTorusTranslationShiftsGrants is a metamorphic relation of the torus: a
// Figure 6 point moved across the partition — along x, y and z, and across
// the x wrap — is the same point. Every grant of the run with consumer b on
// node 0 and producer a on node 1 lands, with the same key and the same
// [start, end), on the resource the translation maps its resource to: b's
// and a's devices, and the I/O node of b's pset that carries the result to
// the client.
func TestTorusTranslationShiftsGrants(t *testing.T) {
	point := func(b, a int) map[string][]grant {
		t.Helper()
		src := fmt.Sprintf(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', %d)
and   a=sp(gen_array(300000,20), 'bg', %d);`, b, a)
		g, err := recordGrants(src, core.Config{MPIBufferBytes: 1000})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ref := point(0, 1)
	for _, c := range []struct{ b, a, pset int }{
		{0, 1, 0}, {2, 3, 0}, {8, 9, 1}, {16, 17, 2}, {3, 0, 0},
	} {
		t.Run(fmt.Sprintf("b=%d,a=%d", c.b, c.a), func(t *testing.T) {
			got := point(c.b, c.a)
			shift := strings.NewReplacer("bg0.", fmt.Sprintf("bg%d.", c.b), "bg1.", fmt.Sprintf("bg%d.", c.a), "io0.", fmt.Sprintf("io%d.", c.pset))
			shifted := map[string]bool{}
			for name, gs := range ref {
				if len(gs) == 0 {
					continue
				}
				to := shift.Replace(name)
				shifted[to] = true
				moved := got[to]
				i := 0
				for i < min(len(gs), len(moved)) && gs[i] == moved[i] {
					i++
				}
				if i < len(gs) || len(moved) != len(gs) {
					t.Errorf("%s -> %s: %d grants, %d after the translation, the first %d alike", name, to, len(gs), len(moved), i)
				}
			}
			for name, gs := range got {
				if len(gs) > 0 && !shifted[name] {
					t.Errorf("%s: %d grants that no resource of the untranslated run maps to", name, len(gs))
				}
			}
		})
	}
}

// TestEnginePruneMatchesUnpruned: where streams merge, a receiver can be
// handed an earlier frame than the one that woke it, and pruning at the
// kernel's time must still not move a grant. Every resource of a run logs
// its requests in grant order; replaying each log through a resource that
// never prunes reproduces every grant.
func TestEnginePruneMatchesUnpruned(t *testing.T) {
	q1, err := scsql.InboundQuery(1, 4, 60_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	q6, err := scsql.InboundQuery(6, 4, 60_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		src  string
		opts []core.Option
	}{
		{"figure8-bal-single-10kB", scsql.MergeQuery(1, 4, 300_000, 20),
			[]core.Option{core.Config{MPIBufferBytes: 10_000, Buffering: carrier.SingleBuffered}}},
		{"figure8-seq-double-30kB", scsql.MergeQuery(1, 2, 300_000, 20),
			[]core.Option{core.Config{MPIBufferBytes: 30_000, Buffering: carrier.DoubleBuffered}}},
		{"figure15-q1-n4", q1, nil},
		{"figure15-q6-n4", q6, nil},
		{"figure5", scsql.Figure5Query(300_000, 20), []core.Option{core.Config{MPIBufferBytes: 30_000}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, err := core.NewEngine(c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			rs := e.Env().Resources()
			logs := make([][]grant, len(rs))
			for i, r := range rs {
				r.SetRecorder(func(owner string, q vtime.Request) {
					logs[i] = append(logs[i], grant{grantKey{owner, q.Stream, q.Seq}, q.Ready, q.Service, q.Start, q.End})
				})
			}
			res, err := scsql.NewEvaluator(e, nil).Exec(c.src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := res.Stream.Drain(); err != nil {
				t.Fatal(err)
			}
			if e.Env().Kernel().Now() == 0 {
				t.Fatal("the kernel's time did not advance: nothing was pruned")
			}
			for i, r := range rs {
				r.SetRecorder(nil)
				plain := vtime.NewResource(r.Name())
				for _, g := range logs[i] {
					if s, end := plain.UseAs(g.key.owner, g.ready, g.service); s != g.start || end != g.end {
						t.Fatalf("%s: %s ready %d service %d: pruned grants [%d,%d), unpruned [%d,%d)",
							r.Name(), g.key, g.ready, g.service, g.start, g.end, s, end)
					}
				}
			}
		})
	}
}
