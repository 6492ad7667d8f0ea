// Package scsql implements the SCSQL query language (paper §2.4): a
// SQL-like language extended with streams and stream processes as
// first-class objects. The package provides a lexer, a recursive-descent
// parser producing an AST, a binder that orders the where-clause process
// bindings by dependency, and an evaluator that lowers queries onto the
// core engine's stream-process API.
//
// The supported grammar covers the paper's entire published query corpus:
//
//	statement  := query ';' | create ';'
//	create     := 'create' 'function' IDENT '(' [param {',' param}] ')'
//	              '->' type 'as' query
//	query      := 'select' expr 'from' decl {',' decl} ['where' conj {'and' conj}]
//	decl       := ['bag' 'of'] type IDENT
//	type       := 'sp' | 'integer' | 'string' | 'stream'
//	conj       := IDENT '=' expr | IDENT 'in' expr | expr CMP expr
//	expr       := add [CMP add]
//	CMP        := '<' | '<=' | '>' | '>=' | '<>' | '='
//	add        := mul {('+'|'-') mul}
//	mul        := unary {('*'|'/') unary}
//	unary      := ['-'] postfix
//	postfix    := primary {'.' IDENT}
//	primary    := NUMBER | STRING | IDENT | IDENT '(' [expr {',' expr}] ')'
//	            | '{' expr {',' expr} '}' | '(' expr ')' | query
//
// Keywords are case-insensitive; strings use single or double quotes.
package scsql

import "fmt"

// Kind classifies a token.
type Kind int

// Token kinds.
const (
	TokEOF Kind = iota + 1
	TokIdent
	TokNumber
	TokString
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokComma
	TokSemicolon
	TokEquals
	TokArrow
	TokLess
	TokLessEq
	TokGreater
	TokGreaterEq
	TokNotEq
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokDot

	// Keywords.
	TokSelect
	TokFrom
	TokWhere
	TokAnd
	TokIn
	TokCreate
	TokFunction
	TokAs
	TokBag
	TokOf
)

func (k Kind) String() string {
	if k >= TokEOF && k <= TokString {
		return [...]string{"end of input", "identifier", "number", "string"}[k-TokEOF]
	}
	// The rest is spelled as the lexer reads it.
	for text, kk := range twoRune {
		if kk == k {
			return "'" + text + "'"
		}
	}
	for r, kk := range punct {
		if kk == k {
			return "'" + string(rune(r)) + "'"
		}
	}
	for word, kk := range keywords {
		if kk == k {
			return "'" + word + "'"
		}
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Token is one lexical token with its source position.
type Token struct {
	Kind Kind
	Text string
	Pos  Pos
}

// Pos is a line/column source position (1-based).
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// SyntaxError reports a lexical or parse failure with its position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("scsql: %s: %s", e.Pos, e.Msg)
}

func errorfAt(pos Pos, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
