package scsql

// syscat.go lowers the system catalog into SCSQL: registered sys_* tables
// (sys_sessions, sys_nodes, sys_links, sys_rps, sys_metrics, sys_resources,
// sys_tables) are first-class relations — sys_nodes() yields one catalog.Tuple per row, so
// the tables compose with count(), merge(), limit(), comprehension filters
// and field access (n.cluster, n.x). streamof(sys_table(...)) lifts a
// table into a live-delta stream paced on the virtual policy clock.

import (
	"fmt"

	"scsq/internal/catalog"
	"scsq/internal/core"
	"scsq/internal/sqep"
)

// sysTableFor resolves a call against the engine's system catalog.
func (ev *Evaluator) sysTableFor(call *Call) (*catalog.Table, bool) {
	return ev.eng.SystemCatalog().Lookup(call.Name)
}

// CatalogRead reports whether stmt only reads the system catalog: a query in
// which every call is a table of sys or a finite fold of their rows (count,
// sum, limit). It spawns no stream process, leases no node and ends by
// itself, so the scheduler runs it without admission and a draining server
// still answers it. streamof() never ends; iota(), gen_array() or a user
// function can make any amount of work.
func CatalogRead(stmt *Statement, sys *catalog.Registry) bool {
	return stmt.Query != nil && queryReadsCatalog(stmt.Query, sys)
}

func queryReadsCatalog(q *Query, sys *catalog.Registry) bool {
	for _, c := range q.Where {
		if !readsCatalog(sys, c.Expr, c.Pred) {
			return false
		}
	}
	return readsCatalog(sys, q.Select)
}

func readsCatalog(sys *catalog.Registry, es ...Expr) bool {
	for _, e := range es {
		ok := true // nil, literals and variables call nothing
		switch x := e.(type) {
		case *Call:
			switch x.Name {
			case "count", "sum", "limit":
			default:
				_, ok = sys.Lookup(x.Name)
			}
			ok = ok && readsCatalog(sys, x.Args...)
		case *SetLit:
			ok = readsCatalog(sys, x.Elems...)
		case *BinaryExpr:
			ok = readsCatalog(sys, x.L, x.R)
		case *UnaryExpr:
			ok = readsCatalog(sys, x.X)
		case *FieldExpr:
			ok = readsCatalog(sys, x.X)
		case *SubqueryExpr:
			ok = queryReadsCatalog(x.Query, sys)
		}
		if !ok {
			return false
		}
	}
	return true
}

// sysPattern evaluates the optional SQL-LIKE argument of a call lowered onto
// table t.
func (ev *Evaluator) sysPattern(t *catalog.Table, call *Call, env *scope) (string, error) {
	if !t.TakesPattern {
		if len(call.Args) != 0 {
			return "", errorfAt(call.Pos, "%s() takes no arguments, got %d", call.Name, len(call.Args))
		}
		return "", nil
	}
	switch len(call.Args) {
	case 0:
		return "", nil
	case 1:
		v, err := ev.evalScalar(call.Args[0], env)
		if err != nil {
			return "", err
		}
		s, ok := v.(string)
		if !ok {
			return "", errorfAt(call.Args[0].ePos(), "%s() pattern must be a string, got %T", call.Name, v)
		}
		return s, nil
	default:
		return "", errorfAt(call.Pos, "%s() takes at most 1 argument, got %d", call.Name, len(call.Args))
	}
}

// compileSysTable lowers sys_table([pattern]) — one snapshot of the table,
// captured when the plan opens (not at compile time), one catalog.Tuple
// element per row.
func (ev *Evaluator) compileSysTable(t *catalog.Table, call *Call, env *scope) (sqep.Operator, error) {
	pattern, err := ev.sysPattern(t, call, env)
	if err != nil {
		return nil, err
	}
	return sqep.NewThunk(call.Name, func() ([]any, error) {
		rows, err := t.Snap(pattern)
		if err != nil {
			return nil, err
		}
		out := make([]any, len(rows))
		for i, r := range rows {
			out[i] = r
		}
		return out, nil
	}), nil
}

// compileStreamOfSys lowers streamof(sys_table([pattern])): a live-delta
// stream that emits the full table on open, then — on each advance of the
// scheduler's virtual policy clock — only the rows whose values changed
// since the previous poll. Requires an attached scheduler: virtual time is
// the pacing source (the times the engine's processes emit, on the kernel's
// one timeline, via Scheduler.ObserveVTime), so observation never injects
// wall-clock nondeterminism into the run.
func (ev *Evaluator) compileStreamOfSys(t *catalog.Table, call *Call, env *scope, b *core.PlanBuilder) (sqep.Operator, error) {
	pattern, err := ev.sysPattern(t, call, env)
	if err != nil {
		return nil, err
	}
	sch := ev.eng.Scheduler()
	if sch == nil {
		return nil, errorfAt(call.Pos, "streamof(%s()): no query scheduler attached to pace the live stream", t.Name)
	}
	tick, stop := sch.SubscribeVTime(b.Agent())
	snap := func() ([]any, []string, error) {
		rows, err := t.Snap(pattern)
		if err != nil {
			return nil, nil, err
		}
		vals := make([]any, len(rows))
		keys := make([]string, len(rows))
		for i, r := range rows {
			vals[i] = r
			keys[i] = r.Key()
		}
		return vals, keys, nil
	}
	return sqep.NewDeltaPoll(fmt.Sprintf("streamof(%s)", t.Name), snap, tick, stop), nil
}
