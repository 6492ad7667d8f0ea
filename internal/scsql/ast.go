package scsql

import (
	"fmt"
	"strings"
)

// DeclType is the declared type of a from-clause variable.
type DeclType int

// Declarable variable types.
const (
	DeclSP DeclType = iota + 1
	DeclInteger
	DeclString
	DeclStream
)

// declTypes spells each declarable type.
var declTypes = [...]string{DeclSP: "sp", DeclInteger: "integer", DeclString: "string", DeclStream: "stream"}

func (t DeclType) String() string {
	if t < 1 || int(t) >= len(declTypes) {
		return "unknown"
	}
	return declTypes[t]
}

// Decl declares a query variable, e.g. "sp a", "bag of sp b", "integer n".
type Decl struct {
	Name string
	Type DeclType
	Bag  bool
	Pos  Pos
}

// Cond is one where-clause conjunct. Three forms exist:
//
//   - Name = Expr   — a binding (Pred nil, In false)
//   - Name in Expr  — an iteration binding (Pred nil, In true)
//   - Pred          — a predicate over bound variables (Name empty),
//     e.g. "i > 5"; predicates filter iteration domains and stream
//     comprehensions.
type Cond struct {
	Name string
	In   bool // true for 'in', false for '='
	Expr Expr
	Pred Expr
	Pos  Pos
}

// Query is a select-from-where block.
type Query struct {
	Select Expr
	From   []Decl
	Where  []Cond
	Pos    Pos
}

// FuncDef is a 'create function ... -> stream as select ...' statement.
type FuncDef struct {
	Name   string
	Params []Decl
	Result DeclType
	Body   *Query
	Pos    Pos
}

// Statement is either a query or a function definition (exactly one field
// is set).
type Statement struct {
	Query *Query
	Def   *FuncDef
}

// Expr is an expression node.
type Expr interface {
	fmt.Stringer
	ePos() Pos
}

// NumberLit is an integer or decimal literal.
type NumberLit struct {
	Text string
	Pos  Pos
}

// StringLit is a quoted string literal.
type StringLit struct {
	Value string
	Pos   Pos
}

// Ident references a variable.
type Ident struct {
	Name string
	Pos  Pos
}

// Call applies a (builtin or user-defined) function.
type Call struct {
	Name string
	Args []Expr
	Pos  Pos
}

// SetLit is a process-set literal such as {a, b}.
type SetLit struct {
	Elems []Expr
	Pos   Pos
}

// SubqueryExpr embeds a select-from-where block in expression position (the
// first argument of spv()).
type SubqueryExpr struct {
	Query *Query
	Pos   Pos
}

// BinaryExpr is an arithmetic or comparison operation.
type BinaryExpr struct {
	Op   string // one of + - * / < <= > >= <> =
	L, R Expr
	Pos  Pos
}

// FieldExpr is a postfix field access such as n.cluster — reading one named
// column of a system-catalog tuple flowing through a comprehension.
type FieldExpr struct {
	X    Expr
	Name string
	Pos  Pos
}

// UnaryExpr is a unary negation.
type UnaryExpr struct {
	Op  string // "-"
	X   Expr
	Pos Pos
}

func (e *NumberLit) ePos() Pos    { return e.Pos }
func (e *StringLit) ePos() Pos    { return e.Pos }
func (e *Ident) ePos() Pos        { return e.Pos }
func (e *Call) ePos() Pos         { return e.Pos }
func (e *SetLit) ePos() Pos       { return e.Pos }
func (e *SubqueryExpr) ePos() Pos { return e.Pos }
func (e *BinaryExpr) ePos() Pos   { return e.Pos }
func (e *UnaryExpr) ePos() Pos    { return e.Pos }
func (e *FieldExpr) ePos() Pos    { return e.Pos }

func (e *BinaryExpr) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

func (e *UnaryExpr) String() string { return e.Op + e.X.String() }

func (e *FieldExpr) String() string { return e.X.String() + "." + e.Name }

func (e *NumberLit) String() string { return e.Text }
func (e *StringLit) String() string { return "'" + e.Value + "'" }
func (e *Ident) String() string     { return e.Name }

func (e *Call) String() string   { return e.Name + "(" + join(e.Args) + ")" }
func (e *SetLit) String() string { return "{" + join(e.Elems) + "}" }

func join(es []Expr) string {
	s := make([]string, len(es))
	for i, e := range es {
		s[i] = e.String()
	}
	return strings.Join(s, ", ")
}

func (e *SubqueryExpr) String() string { return "(" + e.Query.String() + ")" }

func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("select ")
	sb.WriteString(q.Select.String())
	sb.WriteString(" from ")
	for i, d := range q.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		if d.Bag {
			sb.WriteString("bag of ")
		}
		sb.WriteString(d.Type.String())
		sb.WriteByte(' ')
		sb.WriteString(d.Name)
	}
	for i, c := range q.Where {
		if i == 0 {
			sb.WriteString(" where ")
		} else {
			sb.WriteString(" and ")
		}
		if c.Pred != nil {
			sb.WriteString(c.Pred.String())
			continue
		}
		sb.WriteString(c.Name)
		if c.In {
			sb.WriteString(" in ")
		} else {
			sb.WriteString(" = ")
		}
		sb.WriteString(c.Expr.String())
	}
	return sb.String()
}
