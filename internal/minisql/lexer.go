package minisql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexer tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// lex tokenizes a statement. Keywords stay tokIdent; the parser
// compares case-insensitively. Comparison operators lex whole so the
// parser can refuse them by name; a quote is refused here, since every
// value is an INT.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i + 1
			for j < len(src) && (isIdentChar(src[j])) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], i})
			i = j
		case unicode.IsDigit(rune(c)) || (c == '-' && i+1 < len(src) && unicode.IsDigit(rune(src[i+1]))):
			j := i + 1
			for j < len(src) && unicode.IsDigit(rune(src[j])) {
				j++
			}
			toks = append(toks, token{tokNumber, src[i:j], i})
			i = j
		case c == '\'':
			return nil, fmt.Errorf("minisql: string literal at %d is not supported: values are INT", i)
		case strings.ContainsRune("(),*=;", rune(c)):
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		case c == '<' || c == '>' || c == '!':
			j := i + 1
			if j < len(src) && src[j] == '=' {
				j++
			}
			toks = append(toks, token{tokSymbol, src[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("minisql: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

func isIdentChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}
