package core

// syscat.go registers the engine-owned system catalog tables: sys_nodes,
// sys_links, sys_rps, sys_metrics and sys_resources. Each provider captures a consistent
// snapshot under at most one subsystem lock at a time (cndb's, the
// coordinator registry's, the engine edge list's, or the metrics
// registry's atomics) and never enters the build or drain paths, so a
// catalog query can run at any moment — including mid-drain under -race —
// without perturbing virtual-time schedules. The scheduler registers
// sys_sessions into the same registry when it attaches (internal/sched).

import (
	"maps"
	"slices"
	"sort"
	"strings"

	"scsq/internal/catalog"
	"scsq/internal/hw"
	"scsq/internal/metrics"
)

// SystemCatalog returns the engine's system-table registry. It is always
// non-nil; SCSQL resolves sys_* relations against it.
func (e *Engine) SystemCatalog() *catalog.Registry { return e.syscat }

// clusterOrder fixes the row order of per-node tables: front-end, back-end,
// BlueGene — the paper's pipeline order.
var clusterOrder = []hw.ClusterName{hw.FrontEnd, hw.BackEnd, hw.BlueGene}

func (e *Engine) registerCatalog() {
	must := func(err error) {
		if err != nil {
			panic(err) // static schemas: an error here is a programming bug
		}
	}
	must(e.syscat.Register(e.sysNodesTable()))
	must(e.syscat.Register(e.sysLinksTable()))
	must(e.syscat.Register(e.sysRPsTable()))
	must(e.syscat.Register(e.sysMetricsTable()))
	must(e.syscat.Register(e.sysResourcesTable()))
}

// sysNodesTable joins cndb placement/liveness state with the torus geometry
// of internal/hw: one row per compute node of every cluster. Torus and pset
// columns are -1 outside BlueGene.
func (e *Engine) sysNodesTable() *catalog.Table {
	t := &catalog.Table{
		Name: "sys_nodes",
		Doc:  "compute nodes: cndb lease/liveness state joined with torus coordinates",
		Schema: catalog.Schema{
			{Name: "cluster", Type: catalog.TString},
			{Name: "node", Type: catalog.TInt},
			{Name: "x", Type: catalog.TInt},
			{Name: "y", Type: catalog.TInt},
			{Name: "z", Type: catalog.TInt},
			{Name: "pset", Type: catalog.TInt},
			{Name: "io_node", Type: catalog.TInt},
			{Name: "alive", Type: catalog.TInt},
			{Name: "rps", Type: catalog.TInt},
			{Name: "owners", Type: catalog.TString},
		},
	}
	t.Snap = func(string) ([]catalog.Tuple, error) {
		var rows []catalog.Tuple
		for _, c := range clusterOrder {
			cc := e.coords[c]
			if cc == nil {
				continue
			}
			for _, ns := range cc.DB().NodeStates() {
				x, y, z, pset, io := int64(-1), int64(-1), int64(-1), int64(-1), int64(-1)
				if c == hw.BlueGene {
					if co, err := e.env.Torus.CoordOf(ns.Node); err == nil {
						x, y, z = int64(co.X), int64(co.Y), int64(co.Z)
					}
					if p, err := e.env.PsetOf(ns.Node); err == nil {
						pset = int64(p)
						if ion, err := e.env.IONode(p); err == nil {
							io = int64(ion.ID)
						}
					}
				}
				alive := int64(1)
				if ns.Dead {
					alive = 0
				}
				rows = append(rows, t.Row(string(c), int64(ns.Node), x, y, z, pset, io,
					alive, int64(ns.RPs), strings.Join(ns.Owners, ",")))
			}
		}
		return rows, nil
	}
	return t
}

// sysLinksTable reports every wired producer→consumer edge with its carrier
// traffic counters, joined by the link label the carriers bind metrics
// under (Edge.Label).
func (e *Engine) sysLinksTable() *catalog.Table {
	t := &catalog.Table{
		Name: "sys_links",
		Doc:  "wired producer->consumer edges with per-carrier frame/byte/drop counters",
		Schema: catalog.Schema{
			{Name: "carrier", Type: catalog.TString},
			{Name: "query", Type: catalog.TString},
			{Name: "producer", Type: catalog.TString},
			{Name: "consumer", Type: catalog.TString},
			{Name: "from_cluster", Type: catalog.TString},
			{Name: "from_node", Type: catalog.TInt},
			{Name: "to_cluster", Type: catalog.TString},
			{Name: "to_node", Type: catalog.TInt},
			{Name: "frames", Type: catalog.TInt},
			{Name: "bytes", Type: catalog.TInt},
			{Name: "drops", Type: catalog.TInt},
		},
	}
	t.Snap = func(string) ([]catalog.Tuple, error) {
		edges := e.Edges()       // engine lock released before the next snapshot
		snap := e.reg.Snapshot() // atomics only
		rows := make([]catalog.Tuple, 0, len(edges))
		for _, ed := range edges {
			rows = append(rows, t.Row(ed.Carrier, ed.Query, ed.Producer, ed.Consumer,
				string(ed.FromCluster), int64(ed.FromNode), string(ed.ToCluster), int64(ed.ToNode),
				snap.Counters["link.frames."+ed.Label], snap.Counters["link.bytes."+ed.Label],
				snap.Counters["link.drops."+ed.Label]))
		}
		return rows, nil
	}
	return t
}

// sysRPsTable reports the live running processes: placement plus output and
// inbound progress, and where each stands at its query's door. inbox_depth_hw
// (the receiver's high-water inbox depth, an rt.-prefixed gauge), state and
// frontier_ns are wall-clock readings, reported for operators but excluded
// from determinism comparisons (DESIGN.md §9).
func (e *Engine) sysRPsTable() *catalog.Table {
	t := &catalog.Table{
		Name: "sys_rps",
		Doc:  "live running processes: placement, output progress, inbound high-water, door state",
		Schema: catalog.Schema{
			{Name: "id", Type: catalog.TString},
			{Name: "query", Type: catalog.TString},
			{Name: "cluster", Type: catalog.TString},
			{Name: "node", Type: catalog.TInt},
			{Name: "elements_out", Type: catalog.TInt},
			{Name: "bytes_out", Type: catalog.TInt},
			{Name: "frames_out", Type: catalog.TInt},
			{Name: "last_out_ns", Type: catalog.TInt},
			{Name: "recv_frames", Type: catalog.TInt},
			{Name: "recv_bytes", Type: catalog.TInt},
			{Name: "inbox_depth_hw", Type: catalog.TInt},
			{Name: "state", Type: catalog.TString},
			{Name: "frontier_ns", Type: catalog.TInt},
		},
	}
	t.Snap = func(string) ([]catalog.Tuple, error) {
		snap := e.reg.Snapshot()
		var rows []catalog.Tuple
		for _, c := range clusterOrder {
			cc := e.coords[c]
			if cc == nil {
				continue
			}
			procs := cc.RPs()
			sort.Slice(procs, func(i, j int) bool { return procs[i].ID() < procs[j].ID() })
			for _, p := range procs {
				id := p.ID()
				qid := ""
				if i := strings.IndexByte(id, '/'); i > 0 {
					qid = id[:i]
				}
				rows = append(rows, t.Row(id, qid, string(p.Cluster()), int64(p.Node()),
					snap.Counters["rp.elements_out."+id], snap.Counters["rp.bytes_out."+id],
					snap.Counters["rp.frames_out."+id], snap.Gauges["rp.last_out."+id],
					snap.Counters["recv.frames."+id], snap.Counters["recv.bytes."+id],
					snap.Gauges[metrics.RTPrefix+"inbox_depth."+id],
					p.Agent().State().String(), int64(p.Agent().Frontier())))
			}
		}
		return rows, nil
	}
	return t
}

// sysMetricsTable exposes the full metrics registry, one row per metric,
// filtered by an optional SQL-LIKE pattern over the metric name, or — for a
// pattern of the form '@q3' — scoped to the metrics of query q3 (names
// carrying a "q3/" path segment or a ".q3" suffix; Snapshot.ForQuery).
// Counters and gauges use the value column; histograms use
// count/sum/min/max. Ordering is kind (counter, gauge, histogram) then name.
// This is the one loop over the registry snapshot: SCSQL's monitor() and the
// shell's \stats project these rows.
func (e *Engine) sysMetricsTable() *catalog.Table {
	t := &catalog.Table{
		Name:         "sys_metrics",
		Doc:          "the full metrics registry; optional SQL-LIKE name pattern, or '@qid' for one query's",
		TakesPattern: true,
		Schema: catalog.Schema{
			{Name: "kind", Type: catalog.TString},
			{Name: "name", Type: catalog.TString},
			{Name: "value", Type: catalog.TInt},
			{Name: "count", Type: catalog.TInt},
			{Name: "sum_ns", Type: catalog.TInt},
			{Name: "min_ns", Type: catalog.TInt},
			{Name: "max_ns", Type: catalog.TInt},
		},
	}
	t.Snap = func(pattern string) ([]catalog.Tuple, error) {
		snap := e.reg.Snapshot()
		if qid, ok := strings.CutPrefix(pattern, "@"); ok {
			snap, pattern = snap.ForQuery(qid), ""
		}
		match := catalog.Like(pattern)
		var rows []catalog.Tuple
		for _, name := range snap.CounterNames() {
			if match(name) {
				rows = append(rows, t.Row("counter", name, snap.Counters[name],
					int64(0), int64(0), int64(0), int64(0)))
			}
		}
		for _, name := range snap.GaugeNames() {
			if match(name) {
				rows = append(rows, t.Row("gauge", name, snap.Gauges[name],
					int64(0), int64(0), int64(0), int64(0)))
			}
		}
		for _, name := range snap.HistogramNames() {
			if match(name) {
				h := snap.Histograms[name]
				rows = append(rows, t.Row("histogram", name, int64(0),
					h.Count, h.SumNs, h.MinNs, h.MaxNs))
			}
		}
		return rows, nil
	}
	return t
}

// sysResourcesTable reports every simulated device's busy time per owner:
// one row per (resource, owner) that was charged, devices in Env.Resources()
// order, owners sorted. owner is a query id, vtime.RetiredOwner for the
// folded time of retired queries, or vtime.AnonymousOwner; a device's rows
// sum to its BusyTime — the load term a bottleneck analysis compares ("the
// BlueGene I/O is a bottleneck" is the busiest io*.fwd row).
func (e *Engine) sysResourcesTable() *catalog.Table {
	t := &catalog.Table{
		Name: "sys_resources",
		Doc:  "simulated devices: virtual busy time per owning query (retired owners folded)",
		Schema: catalog.Schema{
			{Name: "resource", Type: catalog.TString},
			{Name: "owner", Type: catalog.TString},
			{Name: "busy_ns", Type: catalog.TInt},
		},
	}
	t.Snap = func(string) ([]catalog.Tuple, error) {
		var rows []catalog.Tuple
		for _, r := range e.env.Resources() {
			busy := r.OwnerBusy() // one resource lock at a time
			for _, owner := range slices.Sorted(maps.Keys(busy)) {
				rows = append(rows, t.Row(r.Name(), owner, int64(busy[owner])))
			}
		}
		return rows, nil
	}
	return t
}
