package scsql

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

var keywords = map[string]Kind{
	"select":   TokSelect,
	"from":     TokFrom,
	"where":    TokWhere,
	"and":      TokAnd,
	"in":       TokIn,
	"create":   TokCreate,
	"function": TokFunction,
	"as":       TokAs,
	"bag":      TokBag,
	"of":       TokOf,
}

// Lex tokenizes SCSQL source text. Comments run from "--" to end of line.
// Token texts are slices of src; positions count runes.
func Lex(src string) ([]Token, error) {
	var (
		toks      []Token
		line, col = 1, 1
	)
	i := 0 // byte offset of the next rune
	pos := func() Pos { return Pos{Line: line, Col: col} }
	advance := func() rune {
		r, size := utf8.DecodeRuneInString(src[i:])
		i += size
		if r == '\n' {
			line++
			col = 1
		} else {
			col++
		}
		return r
	}
	peek := func() rune {
		r, _ := utf8.DecodeRuneInString(src[i:])
		return r
	}
	peek2 := func() rune {
		_, size := utf8.DecodeRuneInString(src[i:])
		r, _ := utf8.DecodeRuneInString(src[i+size:])
		return r
	}

	for i < len(src) {
		start := pos()
		r := peek()
		switch {
		case unicode.IsSpace(r):
			advance()
		case r == '-' && peek2() == '-':
			for i < len(src) && peek() != '\n' {
				advance()
			}
		case r == '-' && peek2() == '>':
			advance()
			advance()
			toks = append(toks, Token{Kind: TokArrow, Text: "->", Pos: start})
		case r == '<' && peek2() == '=':
			advance()
			advance()
			toks = append(toks, Token{Kind: TokLessEq, Text: "<=", Pos: start})
		case r == '<' && peek2() == '>':
			advance()
			advance()
			toks = append(toks, Token{Kind: TokNotEq, Text: "<>", Pos: start})
		case r == '>' && peek2() == '=':
			advance()
			advance()
			toks = append(toks, Token{Kind: TokGreaterEq, Text: ">=", Pos: start})
		case r == '<':
			advance()
			toks = append(toks, Token{Kind: TokLess, Text: "<", Pos: start})
		case r == '>':
			advance()
			toks = append(toks, Token{Kind: TokGreater, Text: ">", Pos: start})
		case r == '+':
			advance()
			toks = append(toks, Token{Kind: TokPlus, Text: "+", Pos: start})
		case r == '-':
			advance()
			toks = append(toks, Token{Kind: TokMinus, Text: "-", Pos: start})
		case r == '*':
			advance()
			toks = append(toks, Token{Kind: TokStar, Text: "*", Pos: start})
		case r == '/':
			advance()
			toks = append(toks, Token{Kind: TokSlash, Text: "/", Pos: start})
		case r == '(':
			advance()
			toks = append(toks, Token{Kind: TokLParen, Text: "(", Pos: start})
		case r == ')':
			advance()
			toks = append(toks, Token{Kind: TokRParen, Text: ")", Pos: start})
		case r == '{':
			advance()
			toks = append(toks, Token{Kind: TokLBrace, Text: "{", Pos: start})
		case r == '}':
			advance()
			toks = append(toks, Token{Kind: TokRBrace, Text: "}", Pos: start})
		case r == '.':
			advance()
			toks = append(toks, Token{Kind: TokDot, Text: ".", Pos: start})
		case r == ',':
			advance()
			toks = append(toks, Token{Kind: TokComma, Text: ",", Pos: start})
		case r == ';':
			advance()
			toks = append(toks, Token{Kind: TokSemicolon, Text: ";", Pos: start})
		case r == '=':
			advance()
			toks = append(toks, Token{Kind: TokEquals, Text: "=", Pos: start})
		case r == '\'' || r == '"':
			quote := advance()
			from, closed := i, false
			for i < len(src) {
				if advance() == quote {
					closed = true
					break
				}
			}
			if !closed {
				return nil, errorfAt(start, "unterminated string literal")
			}
			toks = append(toks, Token{Kind: TokString, Text: src[from : i-1], Pos: start})
		case unicode.IsDigit(r):
			from := i
			for i < len(src) && (unicode.IsDigit(peek()) || peek() == '.') {
				advance()
			}
			toks = append(toks, Token{Kind: TokNumber, Text: src[from:i], Pos: start})
		case unicode.IsLetter(r) || r == '_':
			from := i
			for i < len(src) && (unicode.IsLetter(peek()) || unicode.IsDigit(peek()) || peek() == '_') {
				advance()
			}
			word := src[from:i]
			if k, ok := keywords[strings.ToLower(word)]; ok {
				toks = append(toks, Token{Kind: k, Text: word, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start})
			}
		default:
			return nil, errorfAt(start, "unexpected character %q", r)
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: pos()})
	return toks, nil
}
