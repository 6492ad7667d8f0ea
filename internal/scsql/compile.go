package scsql

import (
	"fmt"
	"strings"

	"scsq/internal/catalog"
	"scsq/internal/core"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// sqepOperator aliases the operator interface to keep evaluator signatures
// readable.
type sqepOperator = sqep.Operator

// compileStream lowers a stream expression to a SQEP operator in the
// context of the stream process being built (b). This is where extract()
// and merge() wire carrier connections from producer SPs to this process.
func (ev *Evaluator) compileStream(e Expr, env *scope, b *core.PlanBuilder) (sqep.Operator, error) {
	switch x := e.(type) {
	case *Ident:
		v, ok := env.lookup(x.Name)
		if !ok {
			return nil, errorfAt(x.Pos, "unbound variable %q", x.Name)
		}
		switch val := v.(type) {
		case *core.SP:
			return b.Extract(val)
		case []*core.SP:
			return b.Merge(val)
		default:
			return nil, errorfAt(x.Pos, "variable %q (%T) is not a stream", x.Name, v)
		}
	case *SubqueryExpr:
		return ev.compileQueryBody(x.Query, env, b)
	case *Call:
		return ev.compileCall(x, env, b)
	default:
		return nil, errorfAt(e.ePos(), "expected a stream expression, got %s", e)
	}
}

// compileQueryBody compiles a whole select-from-where block in stream
// context: '=' bindings are evaluated (creating stream processes), and an
// 'in' driver turns the query into a stream comprehension — the domain
// stream is filtered by the predicate conjuncts and mapped through the
// select expression, with the iteration variable bound per element. This
// generalizes the paper's "from integer i where i in iota(1,n)" pattern to
// arbitrary streams.
func (ev *Evaluator) compileQueryBody(q *Query, env *scope, b *core.PlanBuilder) (sqep.Operator, error) {
	local := newScope(env)
	if err := ev.evalBindings(q, local, b.Query()); err != nil {
		return nil, err
	}
	_, driver, preds, err := splitConds(q)
	if err != nil {
		return nil, err
	}
	if driver == nil {
		if len(preds) > 0 {
			return nil, errorfAt(preds[0].Pos, "predicates require an 'in' iteration to filter")
		}
		return ev.compileStream(q.Select, local, b)
	}

	op, err := ev.compileStream(driver.Expr, local, b)
	if err != nil {
		return nil, err
	}
	name := driver.Name
	for _, p := range preds {
		pred := p.Pred
		op = sqep.NewFilter(pred.String(), op, func(v any) (bool, error) {
			elem := newScope(local)
			elem.bind(name, v)
			res, err := ev.evalScalar(pred, elem)
			if err != nil {
				return false, err
			}
			keep, ok := res.(bool)
			if !ok {
				return false, fmt.Errorf("predicate %s is not boolean (got %T)", pred, res)
			}
			return keep, nil
		})
	}
	if id, ok := q.Select.(*Ident); ok && id.Name == name {
		return op, nil // identity comprehension
	}
	sel := q.Select
	return sqep.NewMapFn(sel.String(), op, func(v any) (any, vtime.Duration, error) {
		elem := newScope(local)
		elem.bind(name, v)
		out, err := ev.evalScalar(sel, elem)
		if err != nil {
			return nil, 0, err
		}
		return out, mapElemCost, nil
	}), nil
}

// mapElemCost is the CPU charge for evaluating a comprehension's select
// expression on one element.
const mapElemCost = 100 * vtime.Nanosecond

func (ev *Evaluator) compileCall(call *Call, env *scope, b *core.PlanBuilder) (sqep.Operator, error) {
	wrap1 := func(mk func(sqep.Operator) sqep.Operator) (sqep.Operator, error) {
		if len(call.Args) != 1 {
			return nil, errorfAt(call.Pos, "%s() takes 1 argument, got %d", call.Name, len(call.Args))
		}
		in, err := ev.compileStream(call.Args[0], env, b)
		if err != nil {
			return nil, err
		}
		return mk(in), nil
	}

	switch call.Name {
	case "extract":
		if len(call.Args) != 1 {
			return nil, errorfAt(call.Pos, "extract() takes 1 argument, got %d", len(call.Args))
		}
		sp, err := ev.evalSP(call.Args[0], env, b.Query())
		if err != nil {
			return nil, err
		}
		return b.Extract(sp)

	case "merge":
		if len(call.Args) != 1 {
			return nil, errorfAt(call.Pos, "merge() takes 1 argument, got %d", len(call.Args))
		}
		sps, err := ev.evalSPBag(call.Args[0], env, b.Query())
		if err != nil {
			return nil, err
		}
		return b.Merge(sps)

	case "count":
		return wrap1(func(in sqep.Operator) sqep.Operator { return sqep.NewCount(in) })
	case "sum":
		return wrap1(func(in sqep.Operator) sqep.Operator { return sqep.NewSum(in) })
	case "streamof":
		// streamof over a system catalog table is a live-delta stream paced
		// on the virtual policy clock; over anything else it is the
		// ordinary stream-lift operator.
		if len(call.Args) == 1 {
			if inner, ok := call.Args[0].(*Call); ok {
				if t, ok := ev.sysTableFor(inner); ok {
					return ev.compileStreamOfSys(t, inner, env)
				}
			}
		}
		return wrap1(func(in sqep.Operator) sqep.Operator { return sqep.NewStreamOf(in) })
	case "fft":
		return wrap1(func(in sqep.Operator) sqep.Operator { return sqep.NewFFT(in) })
	case "odd":
		return wrap1(func(in sqep.Operator) sqep.Operator { return sqep.NewOdd(in) })
	case "even":
		return wrap1(func(in sqep.Operator) sqep.Operator { return sqep.NewEven(in) })

	case "gen_array":
		if len(call.Args) != 2 {
			return nil, errorfAt(call.Pos, "gen_array() takes 2 arguments, got %d", len(call.Args))
		}
		size, err := ev.evalInt(call.Args[0], env)
		if err != nil {
			return nil, err
		}
		count, err := ev.evalInt(call.Args[1], env)
		if err != nil {
			return nil, err
		}
		return sqep.NewGenArray(int(size), int(count)), nil

	case "iota":
		if len(call.Args) != 2 {
			return nil, errorfAt(call.Pos, "iota() takes 2 arguments, got %d", len(call.Args))
		}
		from, err := ev.evalInt(call.Args[0], env)
		if err != nil {
			return nil, err
		}
		to, err := ev.evalInt(call.Args[1], env)
		if err != nil {
			return nil, err
		}
		return sqep.NewIota(from, to), nil

	case "grep":
		if len(call.Args) != 2 {
			return nil, errorfAt(call.Pos, "grep() takes 2 arguments, got %d", len(call.Args))
		}
		pattern, err := ev.evalScalar(call.Args[0], env)
		if err != nil {
			return nil, err
		}
		file, err := ev.evalScalar(call.Args[1], env)
		if err != nil {
			return nil, err
		}
		pat, ok1 := pattern.(string)
		fn, ok2 := file.(string)
		if !ok1 || !ok2 {
			return nil, errorfAt(call.Pos, "grep() takes string arguments")
		}
		return sqep.NewGrep(pat, fn), nil

	case "receiver":
		if len(call.Args) != 1 {
			return nil, errorfAt(call.Pos, "receiver() takes 1 argument, got %d", len(call.Args))
		}
		name, err := ev.evalScalar(call.Args[0], env)
		if err != nil {
			return nil, err
		}
		s, ok := name.(string)
		if !ok {
			return nil, errorfAt(call.Pos, "receiver() takes a string argument")
		}
		return sqep.NewSource(s), nil

	case "limit":
		if len(call.Args) != 2 {
			return nil, errorfAt(call.Pos, "limit() takes 2 arguments, got %d", len(call.Args))
		}
		in, err := ev.compileStream(call.Args[0], env, b)
		if err != nil {
			return nil, err
		}
		n, err := ev.evalInt(call.Args[1], env)
		if err != nil {
			return nil, err
		}
		return sqep.NewLimit(in, n), nil

	case "monitor":
		return ev.compileMonitor(call, env)

	case "ps":
		return ev.compilePS(call, env)

	case "cancel":
		return ev.compileCancel(call, env)

	case "radixcombine":
		return ev.compileRadixCombine(call, env, b)

	case "winagg":
		return ev.compileWinAgg(call, env, b)

	default:
		// System catalog tables resolve before user functions: sys_* names
		// are reserved for the engine's own introspection relations.
		if t, ok := ev.sysTableFor(call); ok {
			return ev.compileSysTable(t, call, env)
		}
		if def, ok := ev.cat.Lookup(call.Name); ok {
			return ev.compileUserFunc(def, call, env, b)
		}
		return nil, errorfAt(call.Pos, "unknown function %q", call.Name)
	}
}

// compileMonitor lowers monitor([pattern]) — a view of the sys_metrics
// catalog table that keeps monitor()'s historic element shapes: each row
// becomes a bag {"counter", name, value}, {"gauge", name, value} or
// {"histogram", name, count, sum_ns, min_ns, max_ns}, in sys_metrics order
// (kind, then name). Pattern, '@q3' query scope and snapshot timing (when the
// plan opens) are the table's own: monitor('sched.%') and monitor('sched.')
// are the same view, and a monitor() issued after a query reports that
// query's traffic (its per-RP keys folded into "…retired" once a Reset
// retired it).
func (ev *Evaluator) compileMonitor(call *Call, env *scope) (sqep.Operator, error) {
	t, _ := ev.eng.SystemCatalog().Lookup("sys_metrics") // core registers it at construction
	return ev.compileSysView(t, call, env, func(r catalog.Tuple) any {
		if r.Vals[0] == "histogram" {
			return []any{r.Vals[0], r.Vals[1], r.Vals[3], r.Vals[4], r.Vals[5], r.Vals[6]}
		}
		return r.Vals[:3:3]
	})
}

// compilePS lowers ps() — the sys_sessions catalog table the attached
// scheduler registers, under its historic name. Requires an engine with a
// query scheduler attached (scsq.New installs one; a bare evaluator has none
// — its catalog has no sys_sessions, and the stream fails when drained).
func (ev *Evaluator) compilePS(call *Call, env *scope) (sqep.Operator, error) {
	t, ok := ev.eng.SystemCatalog().Lookup("sys_sessions")
	if !ok {
		return sqep.NewThunk("ps", func() ([]any, error) {
			return nil, fmt.Errorf("scsql: ps(): no query scheduler attached to this engine")
		}), nil
	}
	return ev.compileSysTable(t, call, env)
}

// compileCancel lowers cancel('q3') — cancelling the identified session of
// the attached scheduler. It yields a single confirmation bag {id,
// "cancelled"}; an unknown or finished session is an error.
func (ev *Evaluator) compileCancel(call *Call, env *scope) (sqep.Operator, error) {
	if len(call.Args) != 1 {
		return nil, errorfAt(call.Pos, "cancel() takes 1 argument, got %d", len(call.Args))
	}
	v, err := ev.evalScalar(call.Args[0], env)
	if err != nil {
		return nil, err
	}
	qid, ok := v.(string)
	if !ok {
		return nil, errorfAt(call.Args[0].ePos(), "cancel() takes a query id string, got %T", v)
	}
	eng := ev.eng
	return sqep.NewThunk("cancel", func() ([]any, error) {
		sch := eng.Scheduler()
		if sch == nil {
			return nil, fmt.Errorf("scsql: cancel(): no query scheduler attached to this engine")
		}
		if err := sch.CancelQuery(qid); err != nil {
			return nil, err
		}
		return []any{[]any{qid, "cancelled"}}, nil
	}), nil
}

// compileRadixCombine lowers radixcombine(merge({odd, even})): the merged
// partial-FFT streams are demultiplexed by producer and recombined. The
// first process of the set carries the odd-sample FFTs, the second the
// even-sample FFTs (matching the paper's radix2 definition, where
// a=sp(fft(odd(...))) is listed first).
func (ev *Evaluator) compileRadixCombine(call *Call, env *scope, b *core.PlanBuilder) (sqep.Operator, error) {
	if len(call.Args) != 1 {
		return nil, errorfAt(call.Pos, "radixcombine() takes 1 argument, got %d", len(call.Args))
	}
	mergeCall, ok := call.Args[0].(*Call)
	if !ok || mergeCall.Name != "merge" || len(mergeCall.Args) != 1 {
		return nil, errorfAt(call.Pos, "radixcombine() requires merge({odd, even}) as its argument")
	}
	sps, err := ev.evalSPBag(mergeCall.Args[0], env, b.Query())
	if err != nil {
		return nil, err
	}
	if len(sps) != 2 {
		return nil, errorfAt(call.Pos, "radixcombine() requires exactly two merged processes, got %d", len(sps))
	}
	merged, err := b.Merge(sps)
	if err != nil {
		return nil, err
	}
	return sqep.NewRadixCombine(merged, sps[0].ID(), sps[1].ID()), nil
}

// compileWinAgg lowers winagg(stream, kind, size, slide) — the window
// aggregation operator.
func (ev *Evaluator) compileWinAgg(call *Call, env *scope, b *core.PlanBuilder) (sqep.Operator, error) {
	if len(call.Args) != 4 {
		return nil, errorfAt(call.Pos, "winagg() takes 4 arguments (stream, kind, size, slide), got %d", len(call.Args))
	}
	in, err := ev.compileStream(call.Args[0], env, b)
	if err != nil {
		return nil, err
	}
	kindV, err := ev.evalScalar(call.Args[1], env)
	if err != nil {
		return nil, err
	}
	kindS, ok := kindV.(string)
	if !ok {
		return nil, errorfAt(call.Args[1].ePos(), "winagg() kind must be a string")
	}
	var kind sqep.WindowKind
	switch strings.ToLower(kindS) {
	case "count":
		kind = sqep.WindowCount
	case "sum":
		kind = sqep.WindowSum
	case "avg":
		kind = sqep.WindowAvg
	case "min":
		kind = sqep.WindowMin
	case "max":
		kind = sqep.WindowMax
	default:
		return nil, errorfAt(call.Args[1].ePos(), "unknown window aggregate %q", kindS)
	}
	size, err := ev.evalInt(call.Args[2], env)
	if err != nil {
		return nil, err
	}
	slide, err := ev.evalInt(call.Args[3], env)
	if err != nil {
		return nil, err
	}
	return sqep.NewWindow(in, kind, int(size), int(slide)), nil
}

// compileUserFunc instantiates a create-function body at the call site: the
// body's where-clause bindings run (creating its stream processes) with the
// parameters bound to the call arguments, and the body's select expression
// compiles into the calling process's plan.
func (ev *Evaluator) compileUserFunc(def *FuncDef, call *Call, env *scope, b *core.PlanBuilder) (sqep.Operator, error) {
	if len(call.Args) != len(def.Params) {
		return nil, errorfAt(call.Pos, "%s() takes %d arguments, got %d", def.Name, len(def.Params), len(call.Args))
	}
	fnScope := newScope(nil) // function bodies see only their parameters
	for i, p := range def.Params {
		v, err := ev.evalBindingExpr(call.Args[i], env, b.Query())
		if err != nil {
			return nil, err
		}
		if err := checkDeclType(p, v); err != nil {
			return nil, errorfAt(call.Args[i].ePos(), "%s(): %v", def.Name, err)
		}
		fnScope.bind(p.Name, v)
	}
	return ev.compileQueryBody(def.Body, fnScope, b)
}
