package scsql

import (
	"strings"
)

// Parse parses one SCSQL statement (query or function definition),
// terminated by ';' or end of input.
func Parse(src string) (*Statement, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, errorfAt(Pos{1, 1}, "expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseAll parses a ';'-separated sequence of statements.
func ParseAll(src string) ([]*Statement, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []*Statement
	for p.peek().Kind != TokEOF {
		stmt, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, stmt)
		if p.peek().Kind == TokSemicolon {
			p.next()
		}
	}
	if len(stmts) == 0 {
		return nil, errorfAt(p.peek().Pos, "empty input")
	}
	return stmts, nil
}

type parser struct {
	toks  []Token
	pos   int
	depth int // unaryExpr calls on the stack
}

// maxNesting bounds how deep expressions and subqueries may nest. The
// parser (and the compiler after it) recurses once per level, and statements
// arrive from the network: without a bound a few hundred kilobytes of '('
// overflow the stack, which no recover can catch. The paper's deepest query
// nests six levels.
const maxNesting = 256

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
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
	switch p.peek().Kind {
	case TokCreate:
		def, err := p.funcDef()
		if err != nil {
			return nil, err
		}
		return &Statement{Def: def}, nil
	case TokSelect:
		q, err := p.query()
		if err != nil {
			return nil, err
		}
		return &Statement{Query: q}, nil
	default:
		// A bare expression statement, e.g. the paper's 1000-way grep:
		// merge(spv(select grep(...) from integer i where i in iota(1,1000)));
		t := p.peek()
		e, err := p.expr()
		if err != nil {
			return nil, errorfAt(t.Pos, "expected 'select', 'create' or an expression, found %s %q", t.Kind, t.Text)
		}
		return &Statement{Query: &Query{Select: e, Pos: t.Pos}}, nil
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
	var params []Decl
	for p.peek().Kind != TokRParen {
		if len(params) > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return nil, err
			}
		}
		d, err := p.decl()
		if err != nil {
			return nil, err
		}
		params = append(params, d)
	}
	p.next() // ')'
	if _, err := p.expect(TokArrow); err != nil {
		return nil, err
	}
	resTok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	resType, err := declTypeOf(resTok)
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
	return &FuncDef{
		Name:   strings.ToLower(name.Text),
		Params: params,
		Result: resType,
		Body:   body,
		Pos:    start.Pos,
	}, nil
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
	q := &Query{Select: sel, Pos: start.Pos}
	if p.peek().Kind == TokFrom {
		p.next()
		for {
			d, err := p.decl()
			if err != nil {
				return nil, err
			}
			q.From = append(q.From, d)
			if p.peek().Kind != TokComma {
				break
			}
			p.next()
		}
	}
	if p.peek().Kind == TokWhere {
		p.next()
		for {
			c, err := p.cond()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, c)
			if p.peek().Kind != TokAnd {
				break
			}
			p.next()
		}
	}
	return q, nil
}

// decl := ['bag' 'of'] type IDENT
func (p *parser) decl() (Decl, error) {
	var d Decl
	t := p.peek()
	d.Pos = t.Pos
	if t.Kind == TokBag {
		p.next()
		if _, err := p.expect(TokOf); err != nil {
			return d, err
		}
		d.Bag = true
	}
	typTok, err := p.expect(TokIdent)
	if err != nil {
		return d, err
	}
	d.Type, err = declTypeOf(typTok)
	if err != nil {
		return d, err
	}
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return d, err
	}
	d.Name = nameTok.Text
	return d, nil
}

func declTypeOf(t Token) (DeclType, error) {
	switch strings.ToLower(t.Text) {
	case "sp":
		return DeclSP, nil
	case "integer":
		return DeclInteger, nil
	case "string", "charstring":
		return DeclString, nil
	case "stream":
		return DeclStream, nil
	default:
		return 0, errorfAt(t.Pos, "unknown type %q", t.Text)
	}
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
	if bin, ok := lhs.(*BinaryExpr); !ok || !isComparison(bin.Op) {
		return c, errorfAt(start.Pos, "where-clause conjunct must be a binding (x = ..., x in ...) or a comparison, found %s", lhs)
	}
	c.Pred = lhs
	return c, nil
}

func isComparison(op string) bool {
	switch op {
	case "<", "<=", ">", ">=", "<>", "=":
		return true
	}
	return false
}

// expr parses a full expression with the precedence comparison < additive
// < multiplicative < unary < primary.
func (p *parser) expr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	var op string
	switch p.peek().Kind {
	case TokLess:
		op = "<"
	case TokLessEq:
		op = "<="
	case TokGreater:
		op = ">"
	case TokGreaterEq:
		op = ">="
	case TokNotEq:
		op = "<>"
	case TokEquals:
		op = "="
	default:
		return l, nil
	}
	tok := p.next()
	r, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	return &BinaryExpr{Op: op, L: l, R: r, Pos: tok.Pos}, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.peek().Kind {
		case TokPlus:
			op = "+"
		case TokMinus:
			op = "-"
		default:
			return l, nil
		}
		tok := p.next()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r, Pos: tok.Pos}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.peek().Kind {
		case TokStar:
			op = "*"
		case TokSlash:
			op = "/"
		default:
			return l, nil
		}
		tok := p.next()
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r, Pos: tok.Pos}
	}
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
		return &UnaryExpr{Op: "-", X: x, Pos: t.Pos}, nil
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
		x = &FieldExpr{X: x, Name: strings.ToLower(name.Text), Pos: dot.Pos}
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
		return &NumberLit{Text: t.Text, Pos: t.Pos}, nil
	case TokString:
		p.next()
		return &StringLit{Value: t.Text, Pos: t.Pos}, nil
	case TokSelect:
		q, err := p.query()
		if err != nil {
			return nil, err
		}
		return &SubqueryExpr{Query: q, Pos: t.Pos}, nil
	case TokLParen:
		p.next()
		inner, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return inner, nil
	case TokLBrace:
		p.next()
		set := &SetLit{Pos: t.Pos}
		for p.peek().Kind != TokRBrace {
			if len(set.Elems) > 0 {
				if _, err := p.expect(TokComma); err != nil {
					return nil, err
				}
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			set.Elems = append(set.Elems, e)
		}
		p.next() // '}'
		if len(set.Elems) == 0 {
			return nil, errorfAt(t.Pos, "empty set literal")
		}
		return set, nil
	case TokIdent:
		p.next()
		if p.peek().Kind != TokLParen {
			return &Ident{Name: t.Text, Pos: t.Pos}, nil
		}
		p.next() // '('
		call := &Call{Name: strings.ToLower(t.Text), Pos: t.Pos}
		for p.peek().Kind != TokRParen {
			if len(call.Args) > 0 {
				if _, err := p.expect(TokComma); err != nil {
					return nil, err
				}
			}
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
		}
		p.next() // ')'
		return call, nil
	default:
		return nil, errorfAt(t.Pos, "expected expression, found %s %q", t.Kind, t.Text)
	}
}
