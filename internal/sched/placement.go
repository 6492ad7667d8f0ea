package sched

// placement.go wires the cost-model placement planner (internal/place) into
// admission: Config.Placement installs a planner on the engine so every
// lease acquisition probes the planner's candidate order instead of the raw
// sequence order, and the sys_placements catalog table exposes the planner's
// decisions. Like sys_conns, the table registers only when the feature is
// attached, so planner-less engines keep the golden seven-table catalog (and
// bit-identical schedules: with no planner installed the placement path does
// not change at all).

import (
	"math"

	"scsq/internal/catalog"
	"scsq/internal/cndb"
	"scsq/internal/hw"
	"scsq/internal/place"
)

// WithPlacementPlanner is Config{Placement: &cfg}. Only benchmark/ calls
// it; ROADMAP item 8 moves that caller to Config and deletes it.
func WithPlacementPlanner(cfg place.Config) Option { return Config{Placement: &cfg} }

// Planner returns the planner installed by Config.Placement, or nil.
func (s *Scheduler) Planner() *place.Planner { return s.planner }

// installPlanner builds the planner over the engine's per-cluster node
// databases and installs it (or clears a predecessor's). Called from New
// before the first admission.
func (s *Scheduler) installPlanner() {
	if s.cfg.Placement == nil {
		s.eng.SetPlacementPlanner(nil)
		return
	}
	dbs := make(map[hw.ClusterName]*cndb.DB)
	for _, c := range []hw.ClusterName{hw.BlueGene, hw.BackEnd, hw.FrontEnd} {
		if cc := s.eng.Coordinator(c); cc != nil {
			dbs[c] = cc.DB()
		}
	}
	s.planner = place.New(s.eng.Env(), dbs, *s.cfg.Placement)
	s.eng.SetPlacementPlanner(s.planner)
	s.registerSysPlacements()
}

// SysPlacementsSchema is the sys_placements column list, exported for the
// schema drift guard against DESIGN.md §15. score_e6 is the decision's
// estimated per-byte cost in millionths of a virtual nanosecond per byte
// (the catalog is integer-centric); fallback is 0/1.
var SysPlacementsSchema = catalog.Schema{
	{Name: "id", Type: catalog.TInt},
	{Name: "query", Type: catalog.TString},
	{Name: "cluster", Type: catalog.TString},
	{Name: "objective", Type: catalog.TString},
	{Name: "batch", Type: catalog.TInt},
	{Name: "chosen", Type: catalog.TString},
	{Name: "score_e6", Type: catalog.TInt},
	{Name: "considered", Type: catalog.TInt},
	{Name: "fallback", Type: catalog.TInt},
}

// registerSysPlacements installs the sys_placements provider: one row per
// retained planner decision, oldest first. Registered only when a planner
// is attached (see the package comment of internal/place for the fallback
// and determinism contract the rows describe).
func (s *Scheduler) registerSysPlacements() {
	t := &catalog.Table{
		Name:   "sys_placements",
		Doc:    "placement planner decisions: chosen node order, score, objective, fallbacks",
		Schema: SysPlacementsSchema,
	}
	t.Snap = func(string) ([]catalog.Tuple, error) {
		ds := s.planner.Decisions()
		rows := make([]catalog.Tuple, 0, len(ds))
		for _, d := range ds {
			fb := int64(0)
			if d.Fallback {
				fb = 1
			}
			rows = append(rows, t.Row(int64(d.ID), d.Owner, d.Cluster,
				d.Objective.String(), int64(d.Batch), d.ChosenString(),
				int64(math.Round(d.Score*1e6)), int64(d.Considered), fb))
		}
		return rows, nil
	}
	if err := s.eng.SystemCatalog().Register(t); err != nil {
		panic(err) // static schema: an error here is a programming bug
	}
}
