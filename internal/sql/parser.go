package sql

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"just/internal/geom"
)

// Parse converts one JustQL statement into its AST.
func Parse(src string) (Statement, error) {
	p := &parser{l: newLexer(src)}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, p.l.fail(err)
	}
	p.l.matchOp(";")
	if err := p.l.expectEOF("unexpected trailing input"); err != nil {
		return nil, err
	}
	return stmt, nil
}

type parser struct {
	l *lexer
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.l.isKeyword("CREATE"):
		p.l.next()
		switch {
		case p.l.matchKeyword("TABLE"):
			return p.parseCreateTable()
		case p.l.matchKeyword("VIEW"):
			return p.parseCreateView()
		default:
			t := p.l.peek()
			return nil, &SyntaxError{t.pos, "expected TABLE or VIEW after CREATE"}
		}
	case p.l.isKeyword("DROP"):
		p.l.next()
		isView := false
		if p.l.matchKeyword("VIEW") {
			isView = true
		} else if err := p.l.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.l.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropStmt{IsView: isView, Name: name}, nil
	case p.l.isKeyword("SHOW"):
		p.l.next()
		if p.l.matchKeyword("VIEWS") {
			return &ShowStmt{Views: true}, nil
		}
		if err := p.l.expectKeyword("TABLES"); err != nil {
			return nil, err
		}
		return &ShowStmt{}, nil
	case p.l.isKeyword("DESC") || p.l.isKeyword("DESCRIBE"):
		p.l.next()
		isView := false
		if p.l.matchKeyword("VIEW") {
			isView = true
		} else {
			p.l.matchKeyword("TABLE") // optional
		}
		name, err := p.l.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DescStmt{IsView: isView, Name: name}, nil
	case p.l.isKeyword("INSERT"):
		return p.parseInsert()
	case p.l.isKeyword("LOAD"):
		return p.parseLoad()
	case p.l.isKeyword("STORE"):
		p.l.next()
		if err := p.l.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
		view, err := p.l.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.l.expectKeyword("TO"); err != nil {
			return nil, err
		}
		if err := p.l.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		tbl, err := p.l.expectIdent()
		if err != nil {
			return nil, err
		}
		return &StoreViewStmt{View: view, Table: tbl}, nil
	case p.l.isKeyword("EXPLAIN"):
		p.l.next()
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: q}, nil
	case p.l.isKeyword("SELECT"):
		return p.parseSelect()
	default:
		t := p.l.peek()
		return nil, &SyntaxError{t.pos, fmt.Sprintf("unknown statement start %q", t.text)}
	}
}

func (p *parser) parseCreateView() (Statement, error) {
	name, err := p.l.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.l.expectKeyword("AS"); err != nil {
		return nil, err
	}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &CreateViewStmt{Name: name, Query: q}, nil
}

func (p *parser) parseCreateTable() (Statement, error) {
	name, err := p.l.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Name: name}
	if p.l.matchKeyword("AS") {
		plugin, err := p.l.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Plugin = plugin
	} else {
		if err := p.l.expectOp("("); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if p.l.matchOp(",") {
				continue
			}
			break
		}
		if err := p.l.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if p.l.matchKeyword("USERDATA") {
		ud, err := p.parseJSONMap()
		if err != nil {
			return nil, err
		}
		st.UserData = ud
	}
	return st, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.l.expectIdent()
	if err != nil {
		return ColumnDef{}, err
	}
	typeName, err := p.l.expectIdent()
	if err != nil {
		return ColumnDef{}, err
	}
	col := ColumnDef{Name: name, TypeName: strings.ToLower(typeName)}
	for p.l.matchOp(":") {
		mod, err := p.parseColumnMod()
		if err != nil {
			return ColumnDef{}, err
		}
		col.Mods = append(col.Mods, mod)
	}
	return col, nil
}

// parseColumnMod parses one modifier after ':' — `primary key`,
// `srid=4326`, `compress=gzip|zip|lz4` (alternatives allowed; the first is
// used).
func (p *parser) parseColumnMod() (string, error) {
	word, err := p.l.expectIdent()
	if err != nil {
		return "", err
	}
	word = strings.ToLower(word)
	if word == "primary" {
		if err := p.l.expectKeyword("key"); err != nil {
			return "", err
		}
		return "primary key", nil
	}
	if p.l.matchOp("=") {
		t := p.l.peek()
		var val string
		switch t.kind {
		case tokNumber, tokIdent, tokString:
			val = p.l.next().text
		default:
			return "", &SyntaxError{t.pos, "expected modifier value"}
		}
		// compress=gzip|zip|lz4 offers alternatives; take the first.
		for p.l.matchOp("|") {
			if _, err := p.l.expectIdent(); err != nil {
				return "", err
			}
		}
		return word + "=" + strings.ToLower(val), nil
	}
	return word, nil
}

// parseJSONMap parses the {json} blob after USERDATA / CONFIG into a
// string map.
func (p *parser) parseJSONMap() (map[string]string, error) {
	t := p.l.peek()
	if t.kind != tokJSON {
		return nil, &SyntaxError{t.pos, "expected { ... } block"}
	}
	p.l.next()
	// JustQL permits single-quoted JSON; normalize to double quotes.
	normalized := normalizeJSONQuotes(t.text)
	var raw map[string]any
	if err := json.Unmarshal([]byte(normalized), &raw); err != nil {
		return nil, &SyntaxError{t.pos, fmt.Sprintf("bad JSON: %v", err)}
	}
	out := make(map[string]string, len(raw))
	for k, v := range raw {
		out[k] = fmt.Sprintf("%v", v)
	}
	return out, nil
}

// normalizeJSONQuotes converts single-quoted JSON (as the paper writes
// USERDATA blocks) into standard JSON.
func normalizeJSONQuotes(s string) string {
	var sb strings.Builder
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\\' && i+1 < len(s):
			sb.WriteByte(c)
			i++
			sb.WriteByte(s[i])
		case c == '\'' && !inDouble:
			inSingle = !inSingle
			sb.WriteByte('"')
		case c == '"' && !inSingle:
			inDouble = !inDouble
			sb.WriteByte('"')
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

func (p *parser) parseInsert() (Statement, error) {
	p.l.next() // INSERT
	if err := p.l.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.l.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.l.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	// Rows are cut from chunks of 64 rows' cells: no allocation per row.
	st := &InsertStmt{Table: name}
	var chunk []Cell
	for {
		if err := p.l.expectOp("("); err != nil {
			return nil, err
		}
		if len(st.Rows) > 0 && cap(chunk)-len(chunk) < len(st.Rows[0]) {
			chunk = make([]Cell, 0, 64*len(st.Rows[0]))
		}
		start := len(chunk)
		for {
			c, err := p.parseCell()
			if err != nil {
				return nil, err
			}
			chunk = append(chunk, c)
			if !p.l.matchOp(",") {
				break
			}
		}
		if err := p.l.expectOp(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, chunk[start:len(chunk):len(chunk)])
		if !p.l.matchOp(",") {
			break
		}
	}
	return st, nil
}

// parseCell parses one VALUES cell. A plain literal (a number with an
// optional '-', a quoted string, NULL, TRUE, FALSE) or st_makePoint of
// two such numbers is taken as the value folding would give it. Any other
// cell is rewound and left to the grammar, which gives its errors too.
func (p *parser) parseCell() (Cell, error) {
	saved := *p.l
	if v, ok := p.literalCell(); ok {
		return Cell{Val: v}, nil
	}
	*p.l = saved
	e, err := p.parseExpr()
	return Cell{Expr: e}, err
}

func (p *parser) literalCell() (v any, ok bool) {
	switch t := p.l.peek(); {
	case t.kind == tokString:
		p.l.next()
		v = t.text
	case p.l.matchKeyword("NULL"): // v stays nil
	case p.l.matchKeyword("TRUE"):
		v = true
	case p.l.matchKeyword("FALSE"):
		v = false
	case p.l.matchKeyword("st_makePoint"):
		ok = p.l.matchOp("(")
		x, okX := p.readNumber(p.l.next())
		ok = ok && okX && p.l.matchOp(",")
		y, okY := p.readNumber(p.l.next())
		if !ok || !okY || !p.l.matchOp(")") {
			return nil, false
		}
		v = geom.Point{Lng: x.f, Lat: y.f}
	default:
		n, okN := p.readNumber(p.l.next())
		if !okN {
			return nil, false
		}
		v = n.value()
	}
	t := p.l.peek()
	return v, t.kind == tokOp && (t.text == "," || t.text == ")")
}

// number is a numeric literal: a float64 when its text has '.', 'e' or
// 'E', else an int64; f holds it as a float64 either way.
type number struct {
	i       int64
	f       float64
	isFloat bool
}

// readNumber reads the number token t, or '-' and the number after it.
func (p *parser) readNumber(t token) (n number, ok bool) {
	neg := t.kind == tokOp && t.text == "-"
	if neg {
		t = p.l.next()
	}
	if t.kind != tokNumber {
		return n, false
	}
	var err error
	if n.isFloat = strings.ContainsAny(t.text, ".eE"); n.isFloat {
		n.f, err = strconv.ParseFloat(t.text, 64)
	} else {
		n.i, err = strconv.ParseInt(t.text, 10, 64)
	}
	if neg {
		n.i, n.f = -n.i, -n.f
	}
	if !n.isFloat {
		n.f = float64(n.i)
	}
	return n, err == nil
}

func (n number) value() any {
	if n.isFloat {
		return n.f
	}
	return n.i
}

func (p *parser) parseLoad() (Statement, error) {
	p.l.next() // LOAD
	srcKind, err := p.l.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.l.expectOp(":"); err != nil {
		return nil, err
	}
	src, err := p.parseSourcePath()
	if err != nil {
		return nil, err
	}
	if err := p.l.expectKeyword("TO"); err != nil {
		return nil, err
	}
	if _, err := p.l.expectIdent(); err != nil { // "geomesa"
		return nil, err
	}
	if err := p.l.expectOp(":"); err != nil {
		return nil, err
	}
	dst, err := p.l.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &LoadStmt{SrcKind: strings.ToLower(srcKind), Src: src, Dst: dst}
	if p.l.matchKeyword("CONFIG") {
		cfg, err := p.parseJSONMap()
		if err != nil {
			return nil, err
		}
		st.Config = cfg
	}
	if p.l.matchKeyword("FILTER") {
		t := p.l.peek()
		if t.kind != tokString {
			return nil, &SyntaxError{t.pos, "FILTER expects a quoted string"}
		}
		p.l.next()
		st.Filter = t.text
	}
	return st, nil
}

// parseSourcePath reads a path-like source: a quoted string, or
// dotted/slashed identifiers (hive db.table).
func (p *parser) parseSourcePath() (string, error) {
	t := p.l.peek()
	if t.kind == tokString {
		p.l.next()
		return t.text, nil
	}
	var sb strings.Builder
	first, err := p.l.expectIdent()
	if err != nil {
		return "", err
	}
	sb.WriteString(first)
	for {
		if p.l.matchOp(".") {
			part, err := p.l.expectIdent()
			if err != nil {
				return "", err
			}
			sb.WriteByte('.')
			sb.WriteString(part)
			continue
		}
		if p.l.matchOp("/") {
			part, err := p.l.expectIdent()
			if err != nil {
				return "", err
			}
			sb.WriteByte('/')
			sb.WriteString(part)
			continue
		}
		return sb.String(), nil
	}
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.l.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{Limit: -1}
	for {
		if p.l.matchOp("*") {
			st.Items = append(st.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.l.matchKeyword("AS") {
				alias, err := p.l.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			}
			st.Items = append(st.Items, item)
		}
		if p.l.matchOp(",") {
			continue
		}
		break
	}
	if err := p.l.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseFrom()
	if err != nil {
		return nil, err
	}
	st.From = from
	if p.l.isKeyword("JOIN") || p.l.isKeyword("LEFT") || p.l.isKeyword("INNER") {
		join, err := p.parseJoin()
		if err != nil {
			return nil, err
		}
		st.Join = join
	}
	if p.l.matchKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.l.matchKeyword("GROUP") {
		if err := p.l.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if p.l.matchOp(",") {
				continue
			}
			break
		}
	}
	if p.l.matchKeyword("ORDER") {
		if err := p.l.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if p.l.matchKeyword("DESC") {
				key.Desc = true
			} else {
				p.l.matchKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, key)
			if p.l.matchOp(",") {
				continue
			}
			break
		}
	}
	if p.l.matchKeyword("LIMIT") {
		t := p.l.peek()
		if t.kind != tokNumber {
			return nil, &SyntaxError{t.pos, "LIMIT expects a number"}
		}
		p.l.next()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, &SyntaxError{t.pos, "bad LIMIT"}
		}
		st.Limit = n
	}
	return st, nil
}

func (p *parser) parseFrom() (*FromItem, error) {
	if p.l.matchOp("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.l.expectOp(")"); err != nil {
			return nil, err
		}
		item := &FromItem{Subquery: sub}
		if t := p.l.peek(); t.kind == tokIdent && !isReserved(t.text) {
			item.Alias = p.l.next().text
		}
		return item, nil
	}
	name, err := p.l.expectIdent()
	if err != nil {
		return nil, err
	}
	item := &FromItem{Table: name}
	if t := p.l.peek(); t.kind == tokIdent && !isReserved(t.text) {
		item.Alias = p.l.next().text
	}
	return item, nil
}

var reserved = map[string]bool{
	"WHERE": true, "GROUP": true, "ORDER": true, "LIMIT": true,
	"AND": true, "OR": true, "NOT": true, "AS": true, "BETWEEN": true,
	"IN": true, "WITHIN": true, "SELECT": true, "FROM": true,
	"BY": true, "ASC": true, "DESC": true, "VALUES": true,
	"TRUE": true, "FALSE": true, "NULL": true,
	"JOIN": true, "LEFT": true, "INNER": true, "ON": true,
}

// parseJoin parses `[LEFT|INNER] JOIN <source> ON col = col`.
func (p *parser) parseJoin() (*JoinClause, error) {
	jc := &JoinClause{}
	if p.l.matchKeyword("LEFT") {
		jc.Left = true
	} else {
		p.l.matchKeyword("INNER")
	}
	if err := p.l.expectKeyword("JOIN"); err != nil {
		return nil, err
	}
	right, err := p.parseFrom()
	if err != nil {
		return nil, err
	}
	jc.Right = right
	if err := p.l.expectKeyword("ON"); err != nil {
		return nil, err
	}
	left, err := p.parseQualifiedColumn()
	if err != nil {
		return nil, err
	}
	if err := p.l.expectOp("="); err != nil {
		return nil, err
	}
	rightCol, err := p.parseQualifiedColumn()
	if err != nil {
		return nil, err
	}
	jc.LeftCol, jc.RightCol = left, rightCol
	return jc, nil
}

// parseQualifiedColumn reads `col` or `alias.col`, keeping only the
// column part (JustQL joins resolve by unambiguous column name).
func (p *parser) parseQualifiedColumn() (string, error) {
	name, err := p.l.expectIdent()
	if err != nil {
		return "", err
	}
	if p.l.matchOp(".") {
		return p.l.expectIdent()
	}
	return name, nil
}

func isReserved(s string) bool { return reserved[strings.ToUpper(s)] }

// Expression grammar, lowest precedence first:
//
//	orExpr    := andExpr (OR andExpr)*
//	andExpr   := notExpr (AND notExpr)*
//	notExpr   := NOT notExpr | predicate
//	predicate := additive ((=|!=|<|<=|>|>=|WITHIN) additive
//	             | BETWEEN additive AND additive | IN funcCall)?
//	additive  := multiplicative ((+|-) multiplicative)*
//	mult      := unary ((*|/) unary)*
//	unary     := - unary | primary
//	primary   := literal | funcCall | ident | ( orExpr )
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.l.matchKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.l.matchKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.l.matchKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.l.peek()
	if t.kind == tokOp {
		switch t.text {
		case "=", "!=", "<>", "<", "<=", ">", ">=":
			p.l.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			op := t.text
			if op == "<>" {
				op = "!="
			}
			return &BinaryExpr{Op: op, L: left, R: right}, nil
		}
	}
	if p.l.matchKeyword("WITHIN") {
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: "WITHIN", L: left, R: right}, nil
	}
	if p.l.matchKeyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.l.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: left, Lo: lo, Hi: hi}, nil
	}
	if p.l.matchKeyword("IN") {
		fn, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		call, ok := fn.(*FuncCall)
		if !ok {
			return nil, &SyntaxError{t.pos, "IN expects a function call (e.g. st_KNN)"}
		}
		return &InExpr{X: left, Fn: call}, nil
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.l.peek()
		if t.kind == tokOp && (t.text == "+" || t.text == "-") {
			p.l.next()
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.text, L: left, R: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.l.peek()
		if t.kind == tokOp && (t.text == "*" || t.text == "/") {
			p.l.next()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.text, L: left, R: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.l.matchOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.l.peek()
	switch t.kind {
	case tokNumber:
		p.l.next()
		n, ok := p.readNumber(t)
		if !ok {
			return nil, &SyntaxError{t.pos, "bad number"}
		}
		return &Literal{Val: n.value()}, nil
	case tokString:
		p.l.next()
		return &Literal{Val: t.text}, nil
	case tokIdent:
		upper := strings.ToUpper(t.text)
		switch upper {
		case "TRUE":
			p.l.next()
			return &Literal{Val: true}, nil
		case "FALSE":
			p.l.next()
			return &Literal{Val: false}, nil
		case "NULL":
			p.l.next()
			return &Literal{Val: nil}, nil
		}
		p.l.next()
		if p.l.matchOp("(") {
			call := &FuncCall{Name: strings.ToLower(t.text)}
			if p.l.matchOp(")") {
				return call, nil
			}
			for {
				if p.l.matchOp("*") {
					call.Args = append(call.Args, &Ident{Name: "*"})
				} else {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
				}
				if p.l.matchOp(",") {
					continue
				}
				break
			}
			if err := p.l.expectOp(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		name := t.text
		// Qualified name t.col: keep the column part (single-table
		// queries only, as in the paper's examples).
		if p.l.matchOp(".") {
			col, err := p.l.expectIdent()
			if err != nil {
				return nil, err
			}
			name = col
		}
		return &Ident{Name: name}, nil
	case tokOp:
		if t.text == "(" {
			p.l.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.l.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, &SyntaxError{t.pos, fmt.Sprintf("unexpected token %q", t.text)}
}
