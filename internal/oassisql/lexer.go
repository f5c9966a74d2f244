// Package oassisql implements the OASSIS-QL query language of Section 3 of
// the paper: a SPARQL-flavoured declarative language whose WHERE clause
// selects variable assignments from the ontology and whose SATISFYING clause
// specifies the data patterns to be mined from the crowd, with multiplicity
// markers (+ * ?), the MORE keyword and a support threshold.
package oassisql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokKeyword
	tokName    // bare or quoted term name
	tokVar     // $x
	tokNumber  // 0.4
	tokDot     // .
	tokStar    // *
	tokPlus    // +
	tokQuest   // ?
	tokEq      // =
	tokGeq     // >=
	tokBracket // []
	tokString  // "literal" — distinguished from names by context, see below
)

// token carries the lexeme and its position for error reporting.
type token struct {
	kind   tokenKind
	text   string
	quoted bool // text came from a double-quoted string
	line   int
	col    int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of query"
	case tokVar:
		return "$" + t.text
	case tokBracket:
		return "[]"
	default:
		return t.text
	}
}

var keywords = map[string]string{
	"SELECT": "SELECT", "FACT-SETS": "FACT-SETS", "VARIABLES": "VARIABLES",
	"ALL": "ALL", "WHERE": "WHERE", "SATISFYING": "SATISFYING",
	"MORE": "MORE", "WITH": "WITH", "SUPPORT": "SUPPORT",
	"LIMIT": "LIMIT", "DIVERSE": "DIVERSE",
	"FROM": "FROM", "CROWD": "CROWD", "AND": "AND",
}

// maxKeywordLen is the byte length of the longest keyword.
const maxKeywordLen = len("SATISFYING")

// keyword looks a bare word up in keywords case-insensitively, as
// keywords[strings.ToUpper(word)] does. An ASCII word is upper-cased into a
// stack buffer, so the lookup allocates nothing; a word with a non-ASCII
// byte goes through strings.ToUpper, whose case folding can turn it into a
// keyword ("ſelect" upper-cases to "SELECT").
func keyword(word string) (string, bool) {
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf {
			kw, ok := keywords[strings.ToUpper(word)]
			return kw, ok
		}
		if i < len(buf) {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			buf[i] = c
		}
	}
	if len(word) > len(buf) {
		return "", false // upper-casing ASCII keeps the length
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// lex tokenizes a query. Names may be bare (letters, digits, '-', '_' and
// any non-ASCII rune) or double-quoted (allowing spaces and punctuation).
// A bare name that matches a keyword (case-insensitively) lexes as that
// keyword; quote it to use it as a term name.
func lex(input string) ([]token, error) {
	// One allocation holds the tokens of a query of four or more bytes per
	// token: the 2,016 queries synth.SampleFleet draws at seed 7 run 5.3-7.1
	// bytes per token, the paper's two queries 5.4 and 5.8.
	toks := make([]token, 0, len(input)/4+1)
	line, col := 1, 1
	i := 0
	advance := func(n int) {
		for k := 0; k < n; k++ {
			if input[i+k] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
		}
		i += n
	}
	emit := func(kind tokenKind, text string, quoted bool) {
		toks = append(toks, token{kind: kind, text: text, quoted: quoted, line: line, col: col})
	}
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			advance(1)
		case c == '#': // comment to end of line
			j := strings.IndexByte(input[i:], '\n')
			if j < 0 {
				j = len(input) - i
			}
			advance(j)
		case c == '.':
			emit(tokDot, ".", false)
			advance(1)
		case c == '*':
			emit(tokStar, "*", false)
			advance(1)
		case c == '+':
			emit(tokPlus, "+", false)
			advance(1)
		case c == '?':
			emit(tokQuest, "?", false)
			advance(1)
		case c == '=':
			emit(tokEq, "=", false)
			advance(1)
		case c == '>' && i+1 < len(input) && input[i+1] == '=':
			emit(tokGeq, ">=", false)
			advance(2)
		case c == '[':
			if i+1 < len(input) && input[i+1] == ']' {
				emit(tokBracket, "[]", false)
				advance(2)
			} else {
				return nil, fmt.Errorf("oassisql: %d:%d: '[' must be part of '[]'", line, col)
			}
		case c == '$':
			j := i + 1
			for j < len(input) && isNameByte(input[j]) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("oassisql: %d:%d: '$' must be followed by a variable name", line, col)
			}
			emit(tokVar, input[i+1:j], false)
			advance(j - i)
		case c == '"':
			j := strings.IndexByte(input[i+1:], '"')
			if j < 0 {
				return nil, fmt.Errorf("oassisql: %d:%d: unterminated string", line, col)
			}
			emit(tokName, input[i+1:i+1+j], true)
			advance(j + 2)
		case c >= '0' && c <= '9':
			j := i
			for j < len(input) && (input[j] >= '0' && input[j] <= '9' || input[j] == '.') {
				j++
			}
			// A trailing '.' is the pattern separator, not part of
			// the number (e.g. "0.4." at the end of a clause).
			text := input[i:j]
			trimmed := strings.TrimRight(text, ".")
			if strings.Count(trimmed, ".") > 1 {
				return nil, fmt.Errorf("oassisql: %d:%d: malformed number %q", line, col, text)
			}
			emit(tokNumber, trimmed, false)
			advance(len(trimmed))
		case isNameByte(c):
			j := i
			for j < len(input) && isNameByte(input[j]) {
				j++
			}
			word := input[i:j]
			if kw, ok := keyword(word); ok {
				emit(tokKeyword, kw, false)
			} else {
				emit(tokName, word, false)
			}
			advance(j - i)
		default:
			return nil, fmt.Errorf("oassisql: %d:%d: unexpected character %q", line, col, rune(c))
		}
	}
	toks = append(toks, token{kind: tokEOF, line: line, col: col})
	return toks, nil
}

// isNameByte reports bytes allowed in bare names: letters, digits, '-', '_'
// and all non-ASCII bytes (so UTF-8 names work unquoted).
func isNameByte(c byte) bool {
	if c >= 0x80 {
		return true
	}
	r := rune(c)
	return unicode.IsLetter(r) || unicode.IsDigit(r) || c == '-' || c == '_' || c == '\''
}
