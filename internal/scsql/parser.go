package scsql

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"unsafe"
)

// parseCacheBytes bounds what Parse's cache holds, each statement's text and
// the slab bytes its census sized: thousands of the paper's queries (a Query
// 6 is ≈ 330 B of text and ≈ 3 kB of nodes).
const parseCacheBytes = 4 << 20

// parsed caches Parse's statements by their exact text, the idiom of sqep's
// gen_array templates. Nothing writes an AST after parsing, so every session
// and engine of the process shares one statement. A statement that would take
// the cache past its bound restarts it empty (statements handed out stay
// valid); one that fails to parse is never stored.
var parsed struct {
	mu    sync.Mutex
	bytes int
	m     map[string]*Statement
}

// Parse parses one SCSQL statement (query or function definition),
// terminated by ';' or end of input. The caller must not modify it.
func Parse(src string) (*Statement, error) {
	c := &parsed
	c.mu.Lock()
	stmt, ok := c.m[src]
	c.mu.Unlock()
	if ok {
		return stmt, nil
	}
	stmts, size, err := parseAll(src)
	if err == nil && len(stmts) != 1 {
		err = errorfAt(Pos{1, 1}, "expected exactly one statement, got %d", len(stmts))
	}
	if err != nil {
		return nil, err
	}
	if size += len(src); size <= parseCacheBytes {
		c.mu.Lock()
		if c.m == nil || c.bytes+size > parseCacheBytes {
			c.m, c.bytes = map[string]*Statement{}, 0
		}
		c.m[src], c.bytes = stmts[0], c.bytes+size
		c.mu.Unlock()
	}
	return stmts[0], nil
}

// parseAll parses a ';'-separated sequence of statements, uncached, and
// returns the slab bytes their census sized. Tokens are lexed as the parser
// reads them, so the first error in source order wins: a lexical error ends
// the input where it stands and is reported in place of what the parser
// makes of that end, and one past a syntax error is never reached.
func parseAll(src string) ([]*Statement, int, error) {
	p := &parser{lx: newLexer(src)}
	var stmts []*Statement
	for p.peek().Kind != TokEOF {
		stmt, err := p.statement()
		if err != nil {
			return nil, 0, cmp.Or(p.lx.err, err)
		}
		stmts = append(stmts, stmt)
		if p.peek().Kind == TokSemicolon {
			p.next()
		}
	}
	switch {
	case p.lx.err != nil:
		return nil, 0, p.lx.err
	case len(stmts) == 0:
		return nil, 0, errorfAt(p.peek().Pos, "empty input")
	}
	return stmts, p.bytes, nil
}

type parser struct {
	lx      lexer
	tok     Token // the lookahead, when ahead
	ahead   bool
	depth   int   // unaryExpr calls on the stack
	a       arena // the statement's nodes
	scanned int   // the byte offset census has read to
	bytes   int   // the slab bytes census sized
}

// maxNesting bounds how deep expressions and subqueries may nest. The
// parser (and the compiler after it) recurses once per level, and statements
// arrive from the network: without a bound a few hundred kilobytes of '('
// overflow the stack, which no recover can catch. The paper's deepest query
// nests six levels.
const maxNesting = 256

func (p *parser) peek() Token {
	if !p.ahead {
		p.tok, p.ahead = p.lx.next(), true
	}
	return p.tok
}

func (p *parser) next() Token {
	t := p.peek()
	p.ahead = false // the lexer repeats TokEOF
	return t
}

func (p *parser) expect(k Kind) (Token, error) {
	t := p.peek()
	if t.Kind != k {
		return t, errorfAt(t.Pos, "expected %s, found %s %q", k, t.Kind, t.Text)
	}
	return p.next(), nil
}

func (p *parser) statement() (*Statement, error) {
	first := p.peek()
	if p.a = (arena{}); p.lx.i > p.scanned {
		p.census()
	}
	switch first.Kind {
	case TokCreate:
		def, err := p.funcDef()
		return &Statement{Def: def}, err
	case TokSelect:
		q, err := p.query()
		return &Statement{Query: q}, err
	default:
		// A bare expression statement, e.g. the paper's 1000-way grep:
		// merge(spv(select grep(...) from integer i where i in iota(1,1000)));
		t := p.peek()
		e, err := p.expr()
		if err != nil {
			return nil, errorfAt(t.Pos, "expected 'select', 'create' or an expression, found %s %q", t.Kind, t.Text)
		}
		return &Statement{Query: p.a.queries.node(Query{Select: e, Pos: t.Pos})}, nil
	}
}

// funcDef := 'create' 'function' IDENT '(' [param {',' param}] ')' '->' type 'as' query
func (p *parser) funcDef() (*FuncDef, error) {
	start, _ := p.expect(TokCreate)
	if _, err := p.expect(TokFunction); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var buf [4]Decl
	params, err := list(p, TokRParen, buf[:0], p.decl)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokArrow); err != nil {
		return nil, err
	}
	resType, err := declTypeOf(p.expect(TokIdent))
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAs); err != nil {
		return nil, err
	}
	body, err := p.query()
	if err != nil {
		return nil, err
	}
	return &FuncDef{Name: lower(name.Text), Params: p.a.decls.list(params...), Result: resType, Body: body, Pos: start.Pos}, nil
}

// query := 'select' expr 'from' decl {',' decl} ['where' cond {'and' cond}]
func (p *parser) query() (*Query, error) {
	start, err := p.expect(TokSelect)
	if err != nil {
		return nil, err
	}
	sel, err := p.expr()
	if err != nil {
		return nil, err
	}
	var decls [8]Decl
	var conds [8]Cond
	from, where := decls[:0], conds[:0]
	if p.peek().Kind == TokFrom {
		p.next()
		if from, err = items(p, TokComma, from, p.decl); err != nil {
			return nil, err
		}
	}
	if p.peek().Kind == TokWhere {
		p.next()
		if where, err = items(p, TokAnd, where, p.cond); err != nil {
			return nil, err
		}
	}
	return p.a.queries.node(Query{Select: sel, From: p.a.decls.list(from...), Where: p.a.conds.list(where...), Pos: start.Pos}), nil
}

// decl := ['bag' 'of'] type IDENT
func (p *parser) decl() (Decl, error) {
	var d Decl
	var err error
	t := p.peek()
	d.Pos = t.Pos
	if t.Kind == TokBag {
		p.next()
		if _, err := p.expect(TokOf); err != nil {
			return d, err
		}
		d.Bag = true
	}
	if d.Type, err = declTypeOf(p.expect(TokIdent)); err != nil {
		return d, err
	}
	nameTok, err := p.expect(TokIdent)
	d.Name = nameTok.Text
	return d, err
}

// declTypeOf reads a type's name, the token expect returned.
func declTypeOf(t Token, err error) (DeclType, error) {
	if err != nil {
		return 0, err
	}
	name := lower(t.Text)
	if name == "charstring" {
		return DeclString, nil
	}
	if i := slices.Index(declTypes[:], name); i > 0 {
		return DeclType(i), nil
	}
	return 0, errorfAt(t.Pos, "unknown type %q", t.Text)
}

// cond := IDENT '=' expr | IDENT 'in' expr | predicate-expr
//
// A conjunct of the form "bare-identifier = expr" is a binding, and
// "bare-identifier in expr" an iteration binding; any other comparison is a
// predicate over bound variables (used to filter iteration domains and
// stream comprehensions). Since '=' also parses as a comparison operator
// inside expr (n.x = 0 is an equality predicate), the binding form is
// recovered structurally: an '=' whose left side is a bare identifier is a
// binding — exactly the historic grammar.
func (p *parser) cond() (Cond, error) {
	var c Cond
	start := p.peek()
	c.Pos = start.Pos
	lhs, err := p.expr()
	if err != nil {
		return c, err
	}
	if id, ok := lhs.(*Ident); ok && p.peek().Kind == TokIn {
		p.next()
		c.Name = id.Name
		c.In = true
		c.Expr, err = p.expr()
		return c, err
	}
	if bin, ok := lhs.(*BinaryExpr); ok && bin.Op == "=" {
		if id, ok := bin.L.(*Ident); ok {
			c.Name = id.Name
			c.Expr = bin.R
			return c, nil
		}
	}
	if bin, ok := lhs.(*BinaryExpr); !ok || strings.Contains("+-*/", bin.Op) { // no comparison
		return c, errorfAt(start.Pos, "where-clause conjunct must be a binding (x = ..., x in ...) or a comparison, found %s", lhs)
	}
	c.Pred = lhs
	return c, nil
}

// ops are the binary operators by precedence, loosest first: a comparison
// (which does not chain), additive, multiplicative. Their operands in turn
// are unary expressions.
var ops = [...][]Kind{{TokLess, TokLessEq, TokGreater, TokGreaterEq, TokNotEq, TokEquals}, {TokPlus, TokMinus}, {TokStar, TokSlash}}

// expr parses a full expression.
func (p *parser) expr() (Expr, error) { return p.binary(0) }

// binary parses operands of precedence level+1 joined, left to right, by the
// operators of level; an operator's text is its BinaryExpr.Op.
func (p *parser) binary(level int) (Expr, error) {
	if level == len(ops) {
		return p.unaryExpr()
	}
	l, err := p.binary(level + 1)
	for n := 0; err == nil && (level > 0 || n == 0) && slices.Contains(ops[level], p.peek().Kind); n++ {
		tok := p.next()
		var r Expr
		if r, err = p.binary(level + 1); err == nil {
			l = p.a.bins.node(BinaryExpr{Op: tok.Text, L: l, R: r, Pos: tok.Pos})
		}
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}

// unaryExpr is on every recursive path of the grammar — a parenthesis, a
// call argument, a bag element, a subquery's expressions and a '-' operand
// all come back through it — so it is where nesting depth is counted.
func (p *parser) unaryExpr() (Expr, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxNesting {
		return nil, errorfAt(p.peek().Pos, "nested deeper than %d levels", maxNesting)
	}
	if t := p.peek(); t.Kind == TokMinus {
		p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return p.a.unaries.node(UnaryExpr{Op: "-", X: x, Pos: t.Pos}), nil
	}
	return p.postfixExpr()
}

// postfixExpr := primary {'.' IDENT} — field access on catalog tuples.
func (p *parser) postfixExpr() (Expr, error) {
	x, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for p.peek().Kind == TokDot {
		dot := p.next()
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		x = p.a.fields.node(FieldExpr{X: x, Name: lower(name.Text), Pos: dot.Pos})
	}
	return x, nil
}

// primaryExpr := NUMBER | STRING | IDENT ['(' args ')'] | '{' exprs '}'
//
//	| '(' expr ')' | query
func (p *parser) primaryExpr() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		return p.a.nums.node(NumberLit{Text: t.Text, Pos: t.Pos}), nil
	case TokString:
		p.next()
		return p.a.strs.node(StringLit{Value: t.Text, Pos: t.Pos}), nil
	case TokSelect:
		q, err := p.query()
		if err != nil {
			return nil, err
		}
		return p.a.subs.node(SubqueryExpr{Query: q, Pos: t.Pos}), nil
	case TokLParen:
		p.next()
		inner, err := p.expr()
		if err == nil {
			_, err = p.expect(TokRParen)
		}
		return inner, err
	case TokLBrace:
		p.next()
		var buf [8]Expr
		elems, err := list(p, TokRBrace, buf[:0], p.expr)
		if err != nil {
			return nil, err
		}
		if len(elems) == 0 {
			return nil, errorfAt(t.Pos, "empty set literal")
		}
		return p.a.sets.node(SetLit{Elems: p.a.exprs.list(elems...), Pos: t.Pos}), nil
	case TokIdent:
		p.next()
		if p.peek().Kind != TokLParen {
			return p.a.idents.node(Ident{Name: t.Text, Pos: t.Pos}), nil
		}
		p.next() // '('
		var buf [8]Expr
		args, err := list(p, TokRParen, buf[:0], p.expr)
		if err != nil {
			return nil, err
		}
		return p.a.calls.node(Call{Name: lower(t.Text), Args: p.a.exprs.list(args...), Pos: t.Pos}), nil
	default:
		return nil, errorfAt(t.Pos, "expected expression, found %s %q", t.Kind, t.Text)
	}
}

// list parses items separated by ',' up to close, which it consumes, into
// buf, which the caller gathers on its stack.
func list[T any](p *parser, close Kind, buf []T, item func() (T, error)) ([]T, error) {
	for p.peek().Kind != close {
		if len(buf) > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return nil, err
			}
		}
		x, err := item()
		if err != nil {
			return nil, err
		}
		buf = append(buf, x)
	}
	p.next()
	return buf, nil
}

// items parses item {sep item} into buf, which the caller gathers on its
// stack.
func items[T any](p *parser, sep Kind, buf []T, item func() (T, error)) ([]T, error) {
	for {
		x, err := item()
		if err != nil {
			return nil, err
		}
		if buf = append(buf, x); p.peek().Kind != sep {
			return buf, nil
		}
		p.next()
	}
}

// arena holds one statement's AST in typed slabs, so a statement allocates
// a block per type it uses, not an object per node. Each statement parses
// into a fresh arena; a node kept beyond it (a catalog's FuncDef) keeps its
// blocks alive.
type arena struct {
	queries slab[Query]
	subs    slab[SubqueryExpr]
	calls   slab[Call]
	idents  slab[Ident]
	nums    slab[NumberLit]
	strs    slab[StringLit]
	bins    slab[BinaryExpr]
	unaries slab[UnaryExpr]
	fields  slab[FieldExpr]
	sets    slab[SetLit]
	exprs   slab[Expr]
	decls   slab[Decl]
	conds   slab[Cond]
}

// slab hands out values from a block that only fills: a full block is
// replaced, never resliced or grown, so nothing handed out moves or is
// handed out twice. The first block holds want values, a later one what is
// asked.
type slab[T any] struct {
	free []T
	want int
}

// list copies l, gathered on the parser's stack, into the slab (nil if
// empty).
func (s *slab[T]) list(l ...T) []T {
	if len(l) == 0 {
		return nil
	}
	if len(s.free) < len(l) {
		s.free, s.want = make([]T, max(len(l), s.want)), 0
	}
	b := s.free[:len(l):len(l)]
	s.free = s.free[len(l):]
	copy(b, l)
	return b
}

// bytes is what the slab's first block holds.
func (s *slab[T]) bytes() int { return s.want * int(unsafe.Sizeof(*new(T))) }

// node returns v in the slab.
func (s *slab[T]) node(v T) *T { return &s.list(v)[0] }

// census reads the statement ahead to its ';', on a copy of the lexer, and
// counts the nodes and list elements parsing it makes (exactly, for one that
// parses) as its slabs' first sizes. A statement that starts in text an
// earlier census read is not counted again: the source is lexed at most
// twice.
func (p *parser) census() {
	a, lx, t := &p.a, p.lx, p.peek()
	first, prev := t.Kind, Kind(0)
	bin := &a.bins.want
	count := [...]*int{TokSelect: &a.queries.want, TokWhere: &a.conds.want, TokAnd: &a.conds.want,
		TokNumber: &a.nums.want, TokString: &a.strs.want, TokDot: &a.fields.want, TokLBrace: &a.sets.want,
		TokLess: bin, TokLessEq: bin, TokGreater: bin, TokGreaterEq: bin, TokNotEq: bin, TokEquals: bin,
		TokPlus: bin, TokStar: bin, TokSlash: bin, TokOf: nil}
	var header, from bool // in a definition's 'create … as'; in a from clause
	var headerIdents, declIdents int
	for t.Kind != TokEOF && t.Kind != TokSemicolon {
		next := lx.next()
		if c := count[t.Kind]; c != nil {
			*c++
		}
		header = header && t.Kind != TokAs || t.Kind == TokCreate
		from = from && (t.Kind == TokIdent || t.Kind == TokComma || t.Kind == TokBag || t.Kind == TokOf) || t.Kind == TokFrom
		switch k := t.Kind; {
		case k == TokSelect:
			a.subs.want++
		case k == TokLBrace && next.Kind != TokRBrace, k == TokComma && !header && !from,
			k == TokLParen && prev == TokIdent && !header && next.Kind != TokRParen:
			a.exprs.want++
		case k == TokMinus && (prev == TokNumber || prev == TokString || prev == TokIdent || prev == TokRParen || prev == TokRBrace):
			a.bins.want++
		case k == TokMinus:
			a.unaries.want++
		case k != TokIdent || prev == TokDot: // a field's name is no node
		case header:
			headerIdents++
		case from:
			declIdents++
		case next.Kind == TokLParen:
			a.calls.want++
		default:
			a.idents.want++
		}
		prev, t = t.Kind, next
	}
	// A decl is two identifiers; a header also names the function and its
	// result type.
	a.decls.want = declIdents/2 + max(headerIdents-2, 0)/2
	if first == TokSelect || first == TokCreate {
		a.subs.want-- // the statement's own query is no subquery
	} else {
		a.queries.want++ // a bare expression is wrapped in one
	}
	p.scanned = lx.i
	p.bytes += a.queries.bytes() + a.subs.bytes() + a.calls.bytes() + a.idents.bytes() + a.nums.bytes() +
		a.strs.bytes() + a.bins.bytes() + a.unaries.bytes() + a.fields.bytes() + a.sets.bytes() +
		a.exprs.bytes() + a.decls.bytes() + a.conds.bytes()
}
