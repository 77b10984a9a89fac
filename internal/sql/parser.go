package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// parser walks the token stream.
type parser struct {
	toks []token
	i    int
}

// Parse compiles one SQL statement (an optional trailing ';' is accepted).
func Parse(input string) (Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, p.errf("unexpected input after statement: %q", p.peek().text)
	}
	return stmt, nil
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: parse error at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// acceptKeyword consumes kw if present.
func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errf("expected %q, found %q", s, p.peek().text)
	}
	return nil
}

// identifier accepts an identifier (keywords are not identifiers).
func (p *parser) identifier(what string) (string, error) {
	if t := p.peek(); t.kind == tokIdent {
		p.i++
		return t.text, nil
	}
	return "", p.errf("expected %s, found %q", what, p.peek().text)
}

// literal parses a number or string literal.
func (p *parser) literal() (Datum, error) {
	switch t := p.peek(); t.kind {
	case tokNumber:
		p.i++
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Datum{}, p.errf("bad integer %q", t.text)
		}
		return IntD(v), nil
	case tokString:
		p.i++
		return TextD(t.text), nil
	default:
		return Datum{}, p.errf("expected literal, found %q", t.text)
	}
}

func (p *parser) statement() (Statement, error) {
	switch t := p.peek(); {
	case t.kind == tokKeyword && t.text == "CREATE":
		return p.create()
	case t.kind == tokKeyword && t.text == "INSERT":
		return p.insert()
	case t.kind == tokKeyword && t.text == "SELECT":
		return p.selectStmt()
	case t.kind == tokKeyword && t.text == "UPDATE":
		return p.update()
	case t.kind == tokKeyword && t.text == "DELETE":
		return p.delete()
	case t.kind == tokKeyword && t.text == "BEGIN":
		p.i++
		p.acceptKeyword("TRANSACTION")
		b := &BeginStmt{}
		if p.acceptKeyword("SNAPSHOT") {
			b.TransSI = true
		} else {
			p.acceptKeyword("STATEMENT")
		}
		return b, nil
	case t.kind == tokKeyword && t.text == "COMMIT":
		p.i++
		return &CommitStmt{}, nil
	case t.kind == tokKeyword && t.text == "ROLLBACK":
		p.i++
		return &RollbackStmt{}, nil
	default:
		return nil, p.errf("expected statement, found %q", t.text)
	}
}

func (p *parser) create() (Statement, error) {
	p.i++ // CREATE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.identifier("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		cn, err := p.identifier("column name")
		if err != nil {
			return nil, err
		}
		var ct ColType
		switch {
		case p.acceptKeyword("INT"):
			ct = TInt
		case p.acceptKeyword("TEXT"):
			ct = TText
		default:
			return nil, p.errf("expected column type INT or TEXT")
		}
		cols = append(cols, ColumnDef{Name: strings.ToLower(cn), Type: ct})
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CreateTableStmt{Name: name, Columns: cols}, nil
}

func (p *parser) insert() (Statement, error) {
	p.i++ // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	tbl, err := p.identifier("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var vals []Datum
	for {
		d, err := p.literal()
		if err != nil {
			return nil, err
		}
		vals = append(vals, d)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &InsertStmt{Table: tbl, Values: vals}, nil
}

func (p *parser) selectStmt() (Statement, error) {
	p.i++ // SELECT
	s := &SelectStmt{}
	switch {
	case p.acceptSymbol("*"):
	case p.acceptKeyword("COUNT"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("*"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		s.Aggregate = "COUNT"
	case p.acceptKeyword("SUM"), p.acceptKeyword("MIN"), p.acceptKeyword("MAX"):
		agg := p.toks[p.i-1].text
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		col, err := p.identifier("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		s.Aggregate = agg
		s.AggColumn = strings.ToLower(col)
	default:
		for {
			col, err := p.identifier("column name")
			if err != nil {
				return nil, err
			}
			s.Columns = append(s.Columns, strings.ToLower(col))
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.identifier("table name")
	if err != nil {
		return nil, err
	}
	s.Table = tbl
	if s.Where, err = p.whereClause(); err != nil {
		return nil, err
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.identifier("column name")
		if err != nil {
			return nil, err
		}
		if s.Aggregate == "" {
			return nil, p.errf("GROUP BY requires an aggregate select list")
		}
		s.GroupBy = strings.ToLower(col)
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.identifier("column name")
		if err != nil {
			return nil, err
		}
		ob := &OrderBy{Column: strings.ToLower(col)}
		if p.acceptKeyword("DESC") {
			ob.Desc = true
		} else {
			p.acceptKeyword("ASC")
		}
		s.Order = ob
	}
	if p.acceptKeyword("LIMIT") {
		d, err := p.literal()
		if err != nil || d.Type != TInt || d.I < 0 {
			return nil, p.errf("LIMIT expects a non-negative integer")
		}
		s.Limit = int(d.I)
	}
	return s, nil
}

func (p *parser) update() (Statement, error) {
	p.i++ // UPDATE
	tbl, err := p.identifier("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	u := &UpdateStmt{Table: tbl}
	for {
		col, err := p.identifier("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		d, err := p.literal()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, Condition{Column: strings.ToLower(col), Value: d})
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if u.Where, err = p.whereClause(); err != nil {
		return nil, err
	}
	return u, nil
}

func (p *parser) delete() (Statement, error) {
	p.i++ // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.identifier("table name")
	if err != nil {
		return nil, err
	}
	d := &DeleteStmt{Table: tbl}
	if d.Where, err = p.whereClause(); err != nil {
		return nil, err
	}
	return d, nil
}

// whereClause parses an optional WHERE col = lit [AND col = lit ...].
func (p *parser) whereClause() ([]Condition, error) {
	if !p.acceptKeyword("WHERE") {
		return nil, nil
	}
	var conds []Condition
	for {
		col, err := p.identifier("column name")
		if err != nil {
			return nil, err
		}
		var op CmpOp
		switch {
		case p.acceptSymbol("="):
			op = OpEq
		case p.acceptSymbol("<"):
			op = OpLt
		case p.acceptSymbol(">"):
			op = OpGt
		default:
			return nil, p.errf("expected comparison operator, found %q", p.peek().text)
		}
		d, err := p.literal()
		if err != nil {
			return nil, err
		}
		conds = append(conds, Condition{Column: strings.ToLower(col), Op: op, Value: d})
		if p.acceptKeyword("AND") {
			continue
		}
		break
	}
	return conds, nil
}
