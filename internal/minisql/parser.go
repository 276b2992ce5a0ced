package minisql

import (
	"fmt"
	"strconv"
	"strings"
)

// statement is one parsed statement of the three shapes minisql runs.
type statement struct {
	verb   string // "create", "insert" or "select"
	table  string
	schema Schema    // create
	rows   [][]int64 // insert
	cols   []string  // select; nil = *
	key    string    // select: WHERE key = val
	val    int64
}

type parser struct {
	toks []token
	pos  int
}

// parse parses one SQL statement (a trailing semicolon is allowed).
func parse(src string) (*statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st := &statement{}
	switch {
	case p.accept("create"):
		st.verb, err = "create", p.create(st)
	case p.accept("insert"):
		st.verb, err = "insert", p.insert(st)
	case p.accept("select"):
		st.verb, err = "select", p.sel(st)
	default:
		return nil, fmt.Errorf("minisql: %q statements are not supported: only CREATE TABLE, INSERT and SELECT",
			strings.ToUpper(p.cur().text))
	}
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("minisql: trailing input at %d: %q", p.cur().pos, p.cur().text)
	}
	return st, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }

// accept consumes the token when it matches the keyword or symbol.
func (p *parser) accept(text string) bool {
	t := p.cur()
	if (t.kind == tokIdent || t.kind == tokSymbol) && strings.EqualFold(t.text, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return fmt.Errorf("minisql: expected %q at %d, got %q", text, p.cur().pos, p.cur().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", fmt.Errorf("minisql: expected identifier at %d, got %q", t.pos, t.text)
	}
	p.pos++
	return strings.ToLower(t.text), nil
}

func (p *parser) number() (int64, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("minisql: expected number at %d, got %q", t.pos, t.text)
	}
	p.pos++
	v, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("minisql: bad number %q", t.text)
	}
	return v, nil
}

// list parses item (, item)* between parentheses.
func (p *parser) list(item func() error) error {
	if err := p.expect("("); err != nil {
		return err
	}
	for {
		if err := item(); err != nil {
			return err
		}
		if !p.accept(",") {
			return p.expect(")")
		}
	}
}

// create parses TABLE name (col INT [PRIMARY KEY], ...).
func (p *parser) create(st *statement) (err error) {
	if err := p.expect("table"); err != nil {
		return err
	}
	if st.table, err = p.ident(); err != nil {
		return err
	}
	pks := 0
	err = p.list(func() error {
		col, err := p.ident()
		if err != nil {
			return err
		}
		kind, err := p.ident()
		if err != nil {
			return err
		}
		if kind != "int" && kind != "integer" {
			return fmt.Errorf("minisql: column type %s is not supported: columns are INT", strings.ToUpper(kind))
		}
		c := Column{Name: col}
		if p.accept("primary") {
			if err := p.expect("key"); err != nil {
				return err
			}
			c.PrimaryKey = true
			pks++
		}
		st.schema = append(st.schema, c)
		return nil
	})
	if err == nil && pks > 1 {
		err = fmt.Errorf("minisql: multiple primary keys")
	}
	return err
}

// insert parses INTO name VALUES (n, ...), (n, ...).
func (p *parser) insert(st *statement) (err error) {
	if err := p.expect("into"); err != nil {
		return err
	}
	if st.table, err = p.ident(); err != nil {
		return err
	}
	if err := p.expect("values"); err != nil {
		return err
	}
	for {
		var row []int64
		if err := p.list(func() error {
			v, err := p.number()
			row = append(row, v)
			return err
		}); err != nil {
			return err
		}
		st.rows = append(st.rows, row)
		if !p.accept(",") {
			return nil
		}
	}
}

// sel parses cols|* FROM name WHERE key = n.
func (p *parser) sel(st *statement) (err error) {
	if !p.accept("*") {
		for {
			col, err := p.ident()
			if err != nil {
				return err
			}
			if p.cur().text == "(" {
				return fmt.Errorf("minisql: %s(...) is not supported: SELECT lists columns or *", strings.ToUpper(col))
			}
			st.cols = append(st.cols, col)
			if !p.accept(",") {
				break
			}
		}
	}
	if err := p.expect("from"); err != nil {
		return err
	}
	if st.table, err = p.ident(); err != nil {
		return err
	}
	if !p.accept("where") {
		return fmt.Errorf("minisql: SELECT without WHERE <key> = <n> is not supported (no scans)")
	}
	if st.key, err = p.ident(); err != nil {
		return err
	}
	if op := p.cur(); !p.accept("=") {
		return fmt.Errorf("minisql: WHERE operator %q is not supported: only <key> = <n>", op.text)
	}
	if st.val, err = p.number(); err != nil {
		return err
	}
	if t := p.cur(); t.kind == tokIdent {
		return fmt.Errorf("minisql: WHERE takes one <key> = <n> condition, not %s", strings.ToUpper(t.text))
	}
	return nil
}
