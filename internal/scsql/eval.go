package scsql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"scsq/internal/catalog"
	"scsq/internal/cndb"
	"scsq/internal/core"
	"scsq/internal/hw"
)

// Catalog stores user-defined query functions (create function ... as
// select ...). The zero value is empty and usable.
type Catalog struct {
	mu   sync.Mutex
	defs map[string]*FuncDef
}

// Define registers (or replaces) a function definition.
func (c *Catalog) Define(def *FuncDef) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.defs == nil {
		c.defs = make(map[string]*FuncDef)
	}
	c.defs[strings.ToLower(def.Name)] = def
}

// Lookup returns the definition of name, if any.
func (c *Catalog) Lookup(name string) (*FuncDef, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	def, ok := c.defs[strings.ToLower(name)]
	return def, ok
}

// Result is the outcome of executing one SCSQL statement.
type Result struct {
	// Defined is the function name for a create-function statement.
	Defined string
	// Stream is the client-side result stream for a query statement.
	Stream *core.ClientStream
}

// Evaluator executes SCSQL statements against a core engine.
type Evaluator struct {
	eng *core.Engine
	cat *Catalog
}

// NewEvaluator returns an evaluator over eng using cat for user-defined
// functions (a nil cat gets a fresh catalog).
func NewEvaluator(eng *core.Engine, cat *Catalog) *Evaluator {
	if cat == nil {
		cat = &Catalog{}
	}
	return &Evaluator{eng: eng, cat: cat}
}

// Catalog returns the evaluator's function catalog.
func (ev *Evaluator) Catalog() *Catalog { return ev.cat }

// Exec parses and executes one statement. For queries, the returned
// Result.Stream must be drained by the caller (which starts the RPs).
func (ev *Evaluator) Exec(src string) (*Result, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return ev.ExecStatement(stmt)
}

// ExecStatement executes a parsed statement. A statement is a query: a select
// opens its own engine query, builds in it, and returns a stream that is that
// query's only holder; a failed build holds nothing.
func (ev *Evaluator) ExecStatement(stmt *Statement) (*Result, error) {
	if stmt.Def != nil {
		ev.cat.Define(stmt.Def)
		return &Result{Defined: stmt.Def.Name}, nil
	}
	cq, err := ev.eng.BeginQuery()
	if err != nil {
		return nil, err
	}
	var stream *core.ClientStream
	err = ev.eng.BuildAs(cq, func() (err error) {
		stream, err = ev.Build(cq, stmt.Query)
		return err
	})
	if err != nil {
		cq.Retire()
		return nil, err
	}
	stream.OwnQuery()
	return &Result{Stream: stream}, nil
}

// scope is a lexical environment of bound query variables: a handful of
// bindings each, so a slice searched in order, which a scope allocates only
// at its first bind.
type scope struct {
	parent *scope
	vars   []binding
}

type binding struct {
	name string
	v    any
}

func newScope(parent *scope) *scope { return &scope{parent: parent} }

func (s *scope) lookup(name string) (any, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		for _, b := range sc.vars {
			if b.name == name {
				return b.v, true
			}
		}
	}
	return nil, false
}

// bind binds name in s, overwriting an earlier binding of it in s.
func (s *scope) bind(name string, v any) {
	for i := range s.vars {
		if s.vars[i].name == name {
			s.vars[i].v = v
			return
		}
	}
	s.vars = append(s.vars, binding{name, v})
}

// Build evaluates q inside the engine query cq — where-clause bindings in
// dependency order (each sp()/spv() a process of cq), then the query body
// (select expression plus any stream comprehension) as cq's client-manager
// plan. The caller holds cq's core.Engine.BuildAs bracket.
func (ev *Evaluator) Build(cq *core.Query, q *Query) (*core.ClientStream, error) {
	return cq.ClientPlan(func(b *core.PlanBuilder) (sqepOperator, error) {
		return ev.compileQueryBody(q, newScope(nil), b)
	})
}

// splitConds partitions a where clause into '=' bindings, at most one 'in'
// driver, and predicate conjuncts; the bindings and the predicates share one
// allocation of their exact size.
func splitConds(q *Query) (binds []Cond, driver *Cond, preds []Cond, err error) {
	n := len(q.Where)
	for i, c := range q.Where {
		if c.Pred == nil && c.In {
			if driver != nil {
				return nil, nil, nil, errorfAt(c.Pos, "a query may have at most one 'in' binding")
			}
			driver, n = &q.Where[i], n-1
		}
	}
	conds := make([]Cond, 0, n)
	for _, c := range q.Where {
		if c.Pred == nil && !c.In {
			conds = append(conds, c)
		}
	}
	binds = conds[:len(conds):len(conds)]
	for _, c := range q.Where {
		if c.Pred != nil {
			conds = append(conds, c)
		}
	}
	return binds, driver, conds[len(binds):], nil
}

// evalBindings resolves binds, the '=' conjuncts of q's where clause, in an
// order compatible with their mutual references and binds them in env. 'in'
// drivers and predicates are left to the caller; the driver's variable
// counts as bound for the completeness check.
func (ev *Evaluator) evalBindings(q *Query, binds []Cond, driver *Cond, env *scope, cq *core.Query) error {
	declared := make(map[string]Decl, len(q.From))
	for _, d := range q.From {
		declared[d.Name] = d
	}
	for _, c := range binds {
		if _, ok := declared[c.Name]; !ok {
			return errorfAt(c.Pos, "binding of undeclared variable %q", c.Name)
		}
	}

	order, err := topoOrder(binds, declared, env)
	if err != nil {
		return err
	}
	for _, c := range order {
		v, err := ev.evalBindingExpr(c.Expr, env, cq)
		if err != nil {
			return fmt.Errorf("binding %q: %w", c.Name, err)
		}
		if err := checkDeclType(declared[c.Name], v); err != nil {
			return errorfAt(c.Pos, "%v", err)
		}
		env.bind(c.Name, v)
	}
	for _, d := range q.From { // in declaration order: the first unbound is named
		if driver != nil && driver.Name == d.Name {
			continue // bound per element by the iteration
		}
		if _, ok := env.lookup(d.Name); !ok {
			return errorfAt(d.Pos, "declared variable %q is never bound", d.Name)
		}
	}
	return nil
}

// topoOrder sorts bindings so every binding is evaluated after the bindings
// it references (Kahn's algorithm over declared-variable references).
func topoOrder(binds []Cond, declared map[string]Decl, env *scope) ([]Cond, error) {
	boundBy := make(map[string]int, len(binds)) // var -> binding index
	for i, c := range binds {
		if _, dup := boundBy[c.Name]; dup {
			return nil, errorfAt(c.Pos, "variable %q bound twice", c.Name)
		}
		boundBy[c.Name] = i
	}
	deps := make([][]int, len(binds))
	// indeg, then the queue: every binding enters the queue once, so it
	// never regrows.
	ints := make([]int, 2*len(binds))
	indeg, queue := ints[:len(binds)], ints[len(binds):len(binds)]
	var (
		shadow [8]string
		refs   []string
	)
	for i, c := range binds {
		refs = freeVars(refs[:0], shadow[:0], c.Expr)
		for _, ref := range refs {
			if ref == c.Name {
				continue
			}
			if _, isOuter := env.lookup(ref); isOuter {
				continue // bound in an enclosing scope (function param etc.)
			}
			j, ok := boundBy[ref]
			if !ok {
				if _, decl := declared[ref]; decl {
					return nil, errorfAt(c.Pos, "binding of %q references %q, which is declared but never bound", c.Name, ref)
				}
				return nil, errorfAt(c.Pos, "binding of %q references unknown variable %q", c.Name, ref)
			}
			deps[j] = append(deps[j], i)
			indeg[i]++
		}
	}
	order := make([]Cond, 0, len(binds))
	for i := range binds {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for h := 0; h < len(queue); h++ {
		i := queue[h]
		order = append(order, binds[i])
		for _, j := range deps[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(order) != len(binds) {
		return nil, errorfAt(binds[0].Pos, "cyclic dependency between where-clause bindings")
	}
	return order, nil
}

// freeVars appends to out the identifier references in e, including those
// inside embedded subqueries that the subqueries do not declare; shadow is
// the stack of those declarations, innermost last.
func freeVars(out, shadow []string, e Expr) []string {
	switch x := e.(type) {
	case *Ident:
		if !slices.Contains(shadow, x.Name) {
			out = append(out, x.Name)
		}
	case *Call:
		for _, a := range x.Args {
			out = freeVars(out, shadow, a)
		}
	case *SetLit:
		for _, el := range x.Elems {
			out = freeVars(out, shadow, el)
		}
	case *BinaryExpr:
		out = freeVars(freeVars(out, shadow, x.L), shadow, x.R)
	case *UnaryExpr:
		out = freeVars(out, shadow, x.X)
	case *FieldExpr:
		out = freeVars(out, shadow, x.X)
	case *SubqueryExpr:
		q := x.Query
		for _, d := range q.From {
			shadow = append(shadow, d.Name)
		}
		out = freeVars(out, shadow, q.Select)
		for _, c := range q.Where {
			if c.Expr != nil {
				out = freeVars(out, shadow, c.Expr)
			}
			if c.Pred != nil {
				out = freeVars(out, shadow, c.Pred)
			}
		}
	}
	return out
}

func checkDeclType(d Decl, v any) error {
	switch {
	case d.Bag:
		if _, ok := v.([]*core.SP); !ok {
			return fmt.Errorf("variable %q declared 'bag of %s' but bound to %T", d.Name, d.Type, v)
		}
	case d.Type == DeclSP:
		if _, ok := v.(*core.SP); !ok {
			return fmt.Errorf("variable %q declared 'sp' but bound to %T", d.Name, v)
		}
	case d.Type == DeclInteger:
		if _, ok := v.(int64); !ok {
			return fmt.Errorf("variable %q declared 'integer' but bound to %T", d.Name, v)
		}
	case d.Type == DeclString:
		if _, ok := v.(string); !ok {
			return fmt.Errorf("variable %q declared 'string' but bound to %T", d.Name, v)
		}
	}
	return nil
}

// evalBindingExpr evaluates the right-hand side of a '=' binding: sp() or
// spv() — a process or a bag of processes of cq — or a scalar expression.
func (ev *Evaluator) evalBindingExpr(e Expr, env *scope, cq *core.Query) (any, error) {
	if call, ok := e.(*Call); ok {
		switch call.Name {
		case "sp":
			return ev.doSP(call, env, cq)
		case "spv":
			return ev.doSPV(call, env, cq)
		}
	}
	return ev.evalScalar(e, env)
}

// placement checks the argument count of sp() or spv() and evaluates the
// optional cluster and allocation arguments that follow the first.
func (ev *Evaluator) placement(call *Call, env *scope) (cluster hw.ClusterName, seq *cndb.Sequence, err error) {
	if len(call.Args) < 1 || len(call.Args) > 3 {
		return "", nil, errorfAt(call.Pos, "%s() takes 1-3 arguments, got %d", call.Name, len(call.Args))
	}
	cluster = hw.BlueGene // default when the query omits the cluster
	if len(call.Args) >= 2 {
		if cluster, err = ev.evalCluster(call.Args[1], env); err != nil {
			return "", nil, err
		}
	}
	if len(call.Args) == 3 {
		seq, err = ev.evalAllocSeq(call.Args[2], env)
	}
	return cluster, seq, err
}

// doSP implements sp(subquery, cluster?, alloc?): assign the stream
// expression to a new stream process.
func (ev *Evaluator) doSP(call *Call, env *scope, cq *core.Query) (*core.SP, error) {
	cluster, seq, err := ev.placement(call, env)
	if err != nil {
		return nil, err
	}
	streamExpr := call.Args[0]
	return cq.SP(func(b *core.PlanBuilder) (sqepOperator, error) {
		return ev.compileStream(streamExpr, env, b)
	}, cluster, seq)
}

// doSPV implements spv(subquery-set, cluster, alloc?): assign each subquery
// in the set — one per binding of the subquery's 'in' variable — to a new
// stream process, sharing one allocation sequence across the batch.
func (ev *Evaluator) doSPV(call *Call, env *scope, cq *core.Query) ([]*core.SP, error) {
	cluster, seq, err := ev.placement(call, env)
	if err != nil {
		return nil, err
	}
	sub, ok := call.Args[0].(*SubqueryExpr)
	if !ok {
		return nil, errorfAt(call.Args[0].ePos(), "the first argument of spv() must be a subquery, got %s", call.Args[0])
	}

	q := sub.Query
	binds, driver, preds, err := splitConds(q)
	if err != nil {
		return nil, err
	}
	domain := []any{nil} // a driver-less subquery instantiates once
	if driver != nil {
		domain, err = ev.evalDomain(driver.Expr, env)
		if err != nil {
			return nil, err
		}
	}
	// The instances' scopes are one block, each with its driver's binding
	// inline; a filtered instance's slot is taken by the next.
	insts := make([]struct {
		scope
		drv [1]binding
	}, len(domain))
	n := 0
	for _, dv := range domain {
		inst := &insts[n]
		if inst.parent = env; driver != nil {
			inst.drv[0] = binding{driver.Name, dv}
			inst.vars = inst.drv[:]
		}
		// Predicates filter the iteration domain at plan time: instances
		// whose driver value fails a predicate get no stream process.
		keep := true
		for _, p := range preds {
			res, err := ev.evalScalar(p.Pred, &inst.scope)
			if err != nil {
				return nil, err
			}
			b, ok := res.(bool)
			if !ok {
				return nil, errorfAt(p.Pos, "predicate %s is not boolean (got %T)", p.Pred, res)
			}
			if !b {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		// Evaluate the instance's remaining '=' bindings, if any.
		if err := ev.evalBindings(q, binds, driver, &inst.scope, cq); err != nil {
			return nil, err
		}
		n++
	}
	if n == 0 {
		return nil, errorfAt(call.Pos, "spv() instantiated no stream processes (empty or fully filtered domain)")
	}
	return cq.SPV(n, func(i int, b *core.PlanBuilder) (sqepOperator, error) {
		return ev.compileStream(q.Select, &insts[i].scope, b)
	}, cluster, seq)
}

// evalDomain evaluates the domain of an 'in' binding: iota(n,m) yields
// integers, a bag-of-sp variable yields its processes.
func (ev *Evaluator) evalDomain(e Expr, env *scope) ([]any, error) {
	if call, ok := e.(*Call); ok && call.Name == "iota" {
		from, to, err := ev.intArgs(call, env)
		if err != nil {
			return nil, err
		}
		out := make([]any, 0, min(max(to-from+1, 0), 1<<16))
		for i := from; i <= to; i++ {
			out = append(out, i)
		}
		return out, nil
	}
	v, err := ev.evalScalar(e, env)
	if err != nil {
		return nil, err
	}
	switch x := v.(type) {
	case []*core.SP:
		out := make([]any, len(x))
		for i, sp := range x {
			out[i] = sp
		}
		return out, nil
	default:
		return nil, errorfAt(e.ePos(), "cannot iterate over %T", v)
	}
}

// evalCluster evaluates a cluster-name argument; a literal is read without
// boxing it.
func (ev *Evaluator) evalCluster(e Expr, env *scope) (hw.ClusterName, error) {
	lit, ok := e.(*StringLit)
	s := ""
	if ok {
		s = lit.Value
	} else if v, err := ev.evalScalar(e, env); err != nil {
		return "", err
	} else if s, ok = v.(string); !ok {
		return "", errorfAt(e.ePos(), "cluster argument must be a string, got %T", v)
	}
	c := hw.ClusterName(strings.ToLower(s))
	if !c.Valid() {
		return "", errorfAt(e.ePos(), "unknown cluster %q (want 'fe', 'be' or 'bg')", s)
	}
	return c, nil
}

// evalAllocSeq evaluates a node allocation query: an explicit node id,
// urr(cluster), inPset(k) or psetrr().
func (ev *Evaluator) evalAllocSeq(e Expr, env *scope) (*cndb.Sequence, error) {
	switch x := e.(type) {
	case *Call:
		switch x.Name {
		case "urr":
			if len(x.Args) != 1 {
				return nil, errorfAt(x.Pos, "urr() takes 1 argument, got %d", len(x.Args))
			}
			c, err := ev.evalCluster(x.Args[0], env)
			if err != nil {
				return nil, err
			}
			cc := ev.eng.Coordinator(c)
			if cc == nil {
				return nil, errorfAt(x.Pos, "no coordinator for cluster %q", c)
			}
			return cndb.URR(cc.DB()), nil
		case "inpset":
			if len(x.Args) != 1 {
				return nil, errorfAt(x.Pos, "inPset() takes 1 argument, got %d", len(x.Args))
			}
			k, err := ev.evalInt(x.Args[0], env)
			if err != nil {
				return nil, err
			}
			return cndb.InPset(ev.eng.Env(), int(k))
		case "psetrr":
			if len(x.Args) != 0 {
				return nil, errorfAt(x.Pos, "psetrr() takes no arguments")
			}
			return cndb.PsetRR(ev.eng.Env())
		default:
			return nil, errorfAt(x.Pos, "unknown allocation-sequence function %q", x.Name)
		}
	default:
		id, err := ev.evalInt(e, env)
		if err != nil {
			return nil, err
		}
		return cndb.NewSequence(int(id))
	}
}

// evalScalar evaluates a plan-time scalar expression. The same evaluator
// runs per stream element inside comprehensions, with the iteration
// variable bound in a child scope.
func (ev *Evaluator) evalScalar(e Expr, env *scope) (any, error) {
	switch x := e.(type) {
	case *BinaryExpr:
		l, err := ev.evalScalar(x.L, env)
		if err != nil {
			return nil, err
		}
		r, err := ev.evalScalar(x.R, env)
		if err != nil {
			return nil, err
		}
		v, err := applyBinary(x.Op, l, r)
		if err != nil {
			return nil, errorfAt(x.Pos, "%v", err)
		}
		return v, nil
	case *UnaryExpr:
		v, err := ev.evalScalar(x.X, env)
		if err != nil {
			return nil, err
		}
		switch n := v.(type) {
		case int64:
			return -n, nil
		case float64:
			return -n, nil
		default:
			return nil, errorfAt(x.Pos, "cannot negate %T", v)
		}
	case *FieldExpr:
		v, err := ev.evalScalar(x.X, env)
		if err != nil {
			return nil, err
		}
		tup, ok := v.(catalog.Tuple)
		if !ok {
			return nil, errorfAt(x.Pos, "field access .%s requires a catalog tuple, got %T", x.Name, v)
		}
		fv, ok := tup.Field(x.Name)
		if !ok {
			return nil, errorfAt(x.Pos, "tuple %s has no column %q (schema %s)", tup, x.Name, tup.Schema)
		}
		return fv, nil
	case *NumberLit:
		if strings.Contains(x.Text, ".") {
			f, err := strconv.ParseFloat(x.Text, 64)
			if err != nil {
				return nil, errorfAt(x.Pos, "bad number %q", x.Text)
			}
			return f, nil
		}
		return intLit(x)
	case *StringLit:
		return x.Value, nil
	case *Ident:
		v, ok := env.lookup(x.Name)
		if !ok {
			return nil, errorfAt(x.Pos, "unbound variable %q", x.Name)
		}
		return v, nil
	case *Call:
		switch x.Name {
		case "filename":
			if len(x.Args) != 1 {
				return nil, errorfAt(x.Pos, "filename() takes 1 argument, got %d", len(x.Args))
			}
			i, err := ev.evalInt(x.Args[0], env)
			if err != nil {
				return nil, err
			}
			ft := ev.eng.FileTable()
			if ft == nil {
				return nil, errorfAt(x.Pos, "no file table configured")
			}
			return ft.Name(i)
		default:
			return nil, errorfAt(x.Pos, "%q is not a scalar function", x.Name)
		}
	default:
		return nil, errorfAt(e.ePos(), "cannot evaluate %s as a scalar", e)
	}
}

// intArgs evaluates the two integer arguments of call.
func (ev *Evaluator) intArgs(call *Call, env *scope) (a, b int64, err error) {
	if len(call.Args) != 2 {
		return 0, 0, errorfAt(call.Pos, "%s() takes 2 arguments, got %d", call.Name, len(call.Args))
	}
	if a, err = ev.evalInt(call.Args[0], env); err == nil {
		b, err = ev.evalInt(call.Args[1], env)
	}
	return a, b, err
}

// evalInt evaluates an integer argument; a literal is read without boxing
// it.
func (ev *Evaluator) evalInt(e Expr, env *scope) (int64, error) {
	if x, ok := e.(*NumberLit); ok && !strings.Contains(x.Text, ".") {
		return intLit(x)
	}
	v, err := ev.evalScalar(e, env)
	if err != nil {
		return 0, err
	}
	n, ok := v.(int64)
	if !ok {
		return 0, errorfAt(e.ePos(), "expected an integer, got %T", v)
	}
	return n, nil
}

func intLit(x *NumberLit) (int64, error) {
	n, err := strconv.ParseInt(x.Text, 10, 64)
	if err != nil {
		return 0, errorfAt(x.Pos, "bad number %q", x.Text)
	}
	return n, nil
}

// evalSP resolves an expression to a single stream process.
func (ev *Evaluator) evalSP(e Expr, env *scope, cq *core.Query) (*core.SP, error) {
	v, err := ev.evalBindingExpr(e, env, cq)
	if err != nil {
		return nil, err
	}
	sp, ok := v.(*core.SP)
	if !ok {
		return nil, errorfAt(e.ePos(), "expected a stream process, got %T", v)
	}
	return sp, nil
}

// evalSPBag resolves an expression to a bag of stream processes: a bag
// variable, a single sp, a set literal, or an spv() call.
func (ev *Evaluator) evalSPBag(e Expr, env *scope, cq *core.Query) ([]*core.SP, error) {
	if set, ok := e.(*SetLit); ok {
		var out []*core.SP
		for _, el := range set.Elems {
			sp, err := ev.evalSP(el, env, cq)
			if err != nil {
				return nil, err
			}
			out = append(out, sp)
		}
		return out, nil
	}
	v, err := ev.evalBindingExpr(e, env, cq)
	if err != nil {
		return nil, err
	}
	switch x := v.(type) {
	case []*core.SP:
		return x, nil
	case *core.SP:
		return []*core.SP{x}, nil
	default:
		return nil, errorfAt(e.ePos(), "expected stream processes, got %T", v)
	}
}
