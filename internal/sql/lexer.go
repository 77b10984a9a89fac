// Package sql implements a small SQL front end over the engine: CREATE
// TABLE, INSERT, SELECT (scans with an AND-chain of =, < and > conditions,
// and COUNT/SUM/MIN/MAX aggregates with optional GROUP BY), UPDATE, DELETE,
// and BEGIN/COMMIT/ROLLBACK with both isolation variants. There are no
// secondary indexes: every WHERE is a scan of the table. Statements compile
// to plans that carry their complete table scope, which is exactly how the
// paper's table garbage collector learns a statement snapshot's scope a
// priori: "under Stmt-SI ... the complete set of the accessed tables within
// that snapshot can be retrieved by just accessing its compiled query plan"
// (§4.3). Every statement snapshot and cursor the session acquires is
// therefore scoped automatically, making long-lived SQL readers
// TG-collectable.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol
)

// token is one lexeme with its position for error messages.
type token struct {
	kind tokenKind
	text string // keywords upper-cased, identifiers as written
	pos  int
}

// keywords recognized by the parser; everything else alphabetic is an
// identifier.
var keywords = map[string]bool{
	"CREATE": true, "TABLE": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true,
	"UPDATE": true, "SET": true, "DELETE": true,
	"INT": true, "TEXT": true,
	"COUNT": true, "SUM": true, "MIN": true, "MAX": true, "GROUP": true,
	"BEGIN": true, "COMMIT": true, "ROLLBACK": true,
	"TRANSACTION": true, "SNAPSHOT": true, "STATEMENT": true,
	"LIMIT": true, "ORDER": true, "BY": true, "ASC": true, "DESC": true,
}

// lexError reports a scan failure with position context.
type lexError struct {
	pos int
	msg string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("sql: lex error at offset %d: %s", e.pos, e.msg)
}

// lex tokenizes the input.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '/' && i+1 < n && input[i+1] == '*':
			// Block comment, e.g. the conventional /* aggregate */ hint on
			// OLAP statements. Skipped like whitespace.
			end := strings.Index(input[i+2:], "*/")
			if end < 0 {
				return nil, &lexError{pos: i, msg: "unterminated comment"}
			}
			i += 2 + end + 2
		case c == '\'': // string literal with '' escaping
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, &lexError{pos: start, msg: "unterminated string literal"}
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), pos: start})
		case c == '-' || unicode.IsDigit(c):
			start := i
			if c == '-' {
				i++
				if i >= n || !unicode.IsDigit(rune(input[i])) {
					// A lone '-' is not a number; treat as symbol.
					toks = append(toks, token{kind: tokSymbol, text: "-", pos: start})
					continue
				}
			}
			for i < n && unicode.IsDigit(rune(input[i])) {
				i++
			}
			toks = append(toks, token{kind: tokNumber, text: input[start:i], pos: start})
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{kind: tokKeyword, text: up, pos: start})
			} else {
				toks = append(toks, token{kind: tokIdent, text: word, pos: start})
			}
		case strings.ContainsRune("(),*=;<>", c):
			toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
			i++
		default:
			return nil, &lexError{pos: i, msg: fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}
