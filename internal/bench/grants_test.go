package bench

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"scsq/internal/core"
	"scsq/internal/scsql"
	"scsq/internal/vtime"
)

// ROADMAP item 1, step 0: before fixing the host-scheduler dependence of the
// schedule, locate where two runs of one statement first part ways. Every
// resource records its grants; a resource's log sorted by (start, owner) is
// its schedule, independent of the order the requests were committed in.

// grant is one reservation a resource granted, as its recorder saw it.
type grant struct {
	owner      string
	ready      vtime.Time
	service    vtime.Duration
	start, end vtime.Time
}

func (g grant) String() string {
	return fmt.Sprintf("%s ready %d service %d granted [%d, %d)", g.owner, g.ready, g.service, g.start, g.end)
}

// recordGrants runs the statement src on a fresh engine built with opts,
// with a recorder on every resource of its environment, and returns each
// resource's grants sorted by (start, owner), keyed by resource name.
func recordGrants(src string, opts ...core.Option) (map[string][]grant, error) {
	e, err := core.NewEngine(opts...)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	rs := e.Env().Resources()
	logs := make([][]grant, len(rs))
	for i, r := range rs {
		r.SetRecorder(func(owner string, ready vtime.Time, service vtime.Duration, start, end vtime.Time) {
			logs[i] = append(logs[i], grant{owner, ready, service, start, end})
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
			return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.owner, b.owner))
		})
		out[r.Name()] = logs[i]
	}
	return out, nil
}

// firstGrantDivergence runs src twice on fresh engines and describes the
// earliest grant, by start time, at which some resource's two sorted logs
// differ — "" when every resource granted the identical schedule.
func firstGrantDivergence(src string, opts ...core.Option) (string, error) {
	a, err := recordGrants(src, opts...)
	if err != nil {
		return "", err
	}
	b, err := recordGrants(src, opts...)
	if err != nil {
		return "", err
	}
	show := func(gs []grant, i int) (string, vtime.Time) {
		if i >= len(gs) {
			return "no grant", vtime.Time(1<<63 - 1)
		}
		return gs[i].String(), gs[i].start
	}
	first, firstAt, firstName := "", vtime.Time(0), ""
	for name, ga := range a {
		gb := b[name]
		for i := 0; i < max(len(ga), len(gb)); i++ {
			if i < len(ga) && i < len(gb) && ga[i] == gb[i] {
				continue
			}
			x, xt := show(ga, i)
			y, yt := show(gb, i)
			at := min(xt, yt)
			if first == "" || at < firstAt || (at == firstAt && name < firstName) {
				first = fmt.Sprintf("%s, grant #%d of %d/%d: run 1 %s; run 2 %s", name, i, len(ga), len(gb), x, y)
				firstAt, firstName = at, name
			}
			break
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
		d, err := firstGrantDivergence(src, core.WithMPIBufferBytes(30_000))
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if d != "" {
			t.Errorf("GOMAXPROCS=%d: the two runs diverge at %s", procs, d)
		}
	}
}
