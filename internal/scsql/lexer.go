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
// Token texts are slices of src; positions count runes. The token slice is
// allocated once, at tokenCap(src).
func Lex(src string) ([]Token, error) {
	var (
		toks      = make([]Token, 0, tokenCap(src))
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

// tokenCap bounds the tokens Lex makes of src, EOF included, in one pass over
// its bytes: it skips what Lex skips (whitespace, comments) and counts a
// quoted literal or a run of word bytes as one token and any other byte as
// one. It over-counts two-byte operators and dotted numbers, so a source
// gets at most a few slots per token however many comments it carries; a
// number run straight into a word ("1x") is under-counted, which costs the
// slice one regrowth.
func tokenCap(src string) int {
	n := 1 // EOF
	for i := 0; i < len(src); {
		switch c := src[i]; {
		case c == ' ' || '\t' <= c && c <= '\r':
			i++
			continue
		case strings.HasPrefix(src[i:], "--"):
			if j := strings.IndexByte(src[i:], '\n'); j >= 0 {
				i += j
			} else {
				i = len(src)
			}
			continue
		case c == '\'' || c == '"':
			if j := strings.IndexByte(src[i+1:], c); j >= 0 {
				i += j + 2
			} else {
				i = len(src)
			}
		case isWordByte(c):
			for i < len(src) && isWordByte(src[i]) {
				i++
			}
		default:
			i++
		}
		n++
	}
	return n
}

// isWordByte reports whether c may continue an identifier or number: an
// ASCII letter, digit or '_', or any byte of a multi-byte rune.
func isWordByte(c byte) bool {
	return c == '_' || c >= utf8.RuneSelf || '0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'z'
}
