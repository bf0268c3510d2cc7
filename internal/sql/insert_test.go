package sql

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/table"
)

// TestLexerErrors pins the offset and message of each lexical error and
// of trailing input, inside VALUES cells and elsewhere. The offset is
// where the marker text begins in the statement.
func TestLexerErrors(t *testing.T) {
	cases := []struct {
		src, at, msg string
	}{
		{`SELECT a FROM t WHERE b = 'abc`, `'abc`, `unterminated string`},
		{`INSERT INTO t VALUES (1, 'x'), (2, "y)`, `"y)`, `unterminated string`},
		{`INSERT INTO t VALUES (1, 'it\'s)`, `'it`, `unterminated string`},
		{`CREATE TABLE t (a integer) USERDATA {'k': 'v'`, `{`, `unterminated { ... } block`},
		{`LOAD csv:'a.csv' TO geomesa:t CONFIG {'k': {'v': '}'}`, `{'k'`, `unterminated { ... } block`},
		{`SELECT a FROM t WHERE b = 1 # 2`, `#`, `unexpected character '#'`},
		{`INSERT INTO t VALUES (1, 2 @ 3)`, `@`, `unexpected character '@'`},
		{`INSERT INTO t VALUES (1, 2), (3, 4) garbage`, `garbage`, `unexpected trailing input "garbage"`},
		{`SHOW TABLES; extra`, `extra`, `unexpected trailing input "extra"`},
		{`SELECT a FROM t LIMIT 3 4`, `4`, `unexpected trailing input "4"`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("Parse(%q) = %v, want a *SyntaxError", c.src, err)
			continue
		}
		if want := strings.Index(c.src, c.at); se.Pos != want || se.Msg != c.msg {
			t.Errorf("Parse(%q) = offset %d %q, want offset %d %q", c.src, se.Pos, se.Msg, want, c.msg)
		}
	}
}

// TestNonASCIIIdentifiers: identifiers are Unicode letters, digits and
// '_' read as UTF-8, in CREATE TABLE, SELECT and WHERE alike, and a
// stray invalid UTF-8 byte fails at its offset.
func TestNonASCIIIdentifiers(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE messung (fid integer:primary key, größe integer, 名前 string, time date, geom point:srid=4326)`)
	mustExec(t, s, `INSERT INTO messung VALUES (1, 5, 'a', 3600000, st_makePoint(116.41, 39.9)), (2, 9, 'b', 3600000, st_makePoint(116.42, 39.9))`)
	res := mustExec(t, s, `SELECT größe, 名前 FROM messung WHERE größe > 6 AND 名前 = 'b'`)
	if names := res.Frame.Schema().Names(); strings.Join(names, ",") != "größe,名前" {
		t.Fatalf("columns = %v", names)
	}
	if rows := res.Frame.Collect(); len(rows) != 1 || fmt.Sprint(rows[0]) != "[9 b]" {
		t.Fatalf("rows = %v, want [[9 b]]", rows)
	}
	// Keywords match ASCII letters only: ſ folds to s under Unicode rules.
	if _, err := Parse(`ſELECT größe FROM messung`); err == nil {
		t.Error("ſELECT parsed as SELECT")
	}
	for _, c := range []struct {
		src string
		at  int
	}{
		{"SELECT gr\xffße FROM messung", 9},
		{"SELECT größe FROM messung WHERE \xc3", 34},
	} {
		_, err := Parse(c.src)
		var se *SyntaxError
		want := fmt.Sprintf("invalid UTF-8 byte %#x", c.src[c.at])
		if !errors.As(err, &se) || se.Pos != c.at || se.Msg != want {
			t.Errorf("Parse(%q) = %v, want %q at offset %d", c.src, err, want, c.at)
		}
	}
}

// grammarInsert is INSERT without the literal-cell shortcut: every cell
// goes down the expression grammar when parsed and through foldExpr →
// evalConst → coerceValue when executed. It is the oracle the shortcut
// is tested against.
func grammarInsert(src string, cols []table.Column) ([]exec.Row, error) {
	p := &parser{l: newLexer(src)}
	cells, err := p.grammarValues()
	if err != nil {
		return nil, p.l.fail(err)
	}
	p.l.matchOp(";")
	if err := p.l.expectEOF("unexpected trailing input"); err != nil {
		return nil, err
	}
	var rows []exec.Row
	for _, exprRow := range cells {
		if len(exprRow) != len(cols) {
			return nil, fmt.Errorf("sql: INSERT arity %d != table arity %d", len(exprRow), len(cols))
		}
		row := make(exec.Row, len(cols))
		for i, e := range exprRow {
			v, err := evalConst(foldExpr(e))
			if err != nil {
				return nil, err
			}
			if row[i], err = coerceValue(cols[i], v); err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (p *parser) grammarValues() ([][]Expr, error) {
	for _, kw := range []string{"INSERT", "INTO"} {
		if err := p.l.expectKeyword(kw); err != nil {
			return nil, err
		}
	}
	if _, err := p.l.expectIdent(); err != nil {
		return nil, err
	}
	if err := p.l.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	var rows [][]Expr
	for {
		if err := p.l.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.l.matchOp(",") {
				break
			}
		}
		if err := p.l.expectOp(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if !p.l.matchOp(",") {
			return rows, nil
		}
	}
}

// shortcutInsert is what Parse and execInsert hand the engine.
func shortcutInsert(src string, cols []table.Column) ([]exec.Row, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return insertRows(cols, stmt.(*InsertStmt).Rows)
}

// canonical replaces each float by its bits, so that the comparison
// tells -0 from 0 and lets a NaN equal itself.
func canonical(rows []exec.Row) []exec.Row {
	out := make([]exec.Row, len(rows))
	for i, r := range rows {
		out[i] = make(exec.Row, len(r))
		for j, v := range r {
			switch x := v.(type) {
			case float64:
				v = math.Float64bits(x)
			case geom.Point:
				v = [2]uint64{math.Float64bits(x.Lng), math.Float64bits(x.Lat)}
			}
			out[i][j] = v
		}
	}
	return out
}

// sameInsert requires the shortcut and the grammar to give the same rows
// or the same error text, offset included.
func sameInsert(t *testing.T, src string, cols []table.Column) (ok bool) {
	t.Helper()
	got, gotErr := shortcutInsert(src, cols)
	want, wantErr := grammarInsert(src, cols)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s\nshortcut error: %v\ngrammar error:  %v", src, gotErr, wantErr)
	}
	if !reflect.DeepEqual(canonical(got), canonical(want)) {
		t.Fatalf("%s\nshortcut rows: %#v\ngrammar rows:  %#v", src, got, want)
	}
	return gotErr == nil
}

var insertCols = []table.Column{
	{Name: "fid", Type: exec.TypeInt},
	{Name: "n", Type: exec.TypeInt},
	{Name: "x", Type: exec.TypeFloat},
	{Name: "s", Type: exec.TypeString},
	{Name: "b", Type: exec.TypeBool},
	{Name: "ts", Type: exec.TypeTime},
	{Name: "g", Type: exec.TypeGeometry},
}

// insertCells holds, for each column of insertCols, cell texts that
// column takes.
var insertCells = [][]string{
	{`1`, `42`, `-7`, `- 7`, `-0`, `007`, `9007199254740993`, `9223372036854775807`, `-9223372036854775807`,
		`2.9`, `-2.9`, `1e3`, `1 + 2`, `-(3)`, `- -3`, `'12'`, `NULL`},
	{`0`, `255`, `256`, `-256`, `1E2`, `1.5e-3`, `.5`, `2.`, `null`},
	{`3.25`, `-0.0`, `0.0`, `-1.5E+2`, `1e-320`, `12`, `-12`, `'12.5'`, `2 * 3.5`, `NULL`},
	{`'a'`, `''`, `'it\'s'`, `"double"`, `'back\\slash'`, `'\q'`, `'tab	in'`, `'é'`, `7`, `-7.5`, `TRUE`, `NULL`,
		`st_makePoint(1, 2)`},
	{`TRUE`, `FALSE`, `true`, `False`, `tRuE`, `falſe`, `NULL`, `NOT TRUE`},
	{`3600000`, `-1`, `1.9`, `'1970-01-02 00:00:00'`, `'2019-01-01'`, `'1970-01-01 01:00:00'`, `NULL`, `1 + 1`},
	{`st_makePoint(1, 2)`, `st_makePoint(116.41, 39.9)`, `ST_MAKEPOINT(-1, -2.5)`, `st_makepoint(1e2, -0)`,
		`st_makePoint(-0.0, 9007199254740993)`, `st_makePoint( - 3 , 4 )`, `st_makePoint(1 + 1, 2)`, `st_maKepoint(5, 6)`,
		`'POINT (1 2)'`, `'LINESTRING (0 0, 1 1)'`, `NULL`},
}

// oddCells are cells that fail in some column or in every one:
// out-of-range numbers, wrong types, bad function calls and malformed
// text, non-ASCII letters included.
var oddCells = []string{`9223372036854775808`, `1e400`, `1.2.3`, `'x'`, `TRUE`, `1`, `'not a time'`,
	`'2019-01-01T08:00:00Z'`, `st_makePoint(1)`, `st_makePoint(1, 2, 3)`, `st_makePoint('a', 1)`,
	`st_makePoint(1, 1e400)`, `st_makeMBR(0, 0, 1, 1)`, `'POINT (1'`,
	``, `1 2`, `@`, `'unterminated`, `(`, `st_makePoint(1, 2`, `fid`, `st_makePoint(1, 2)(`, `-'a'`,
	`NULL(`, `TRUE.x`, `1_000`, `0x10`, `nosuch(1)`, `st_makePoint(*)`, `-`, `st_makePoint(1, --2)`, `ſt_makePoint(1, 2)`}

// TestInsertShortcutMatchesGrammar: over generated INSERTs, the rows the
// shortcut hands the engine are exactly the grammar path's, and a
// failing statement fails with the same error text and offset.
func TestInsertShortcutMatchesGrammar(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	var ok, failed int
	for n := 0; n < 3000; n++ {
		var sb strings.Builder
		sb.WriteString("INSERT INTO t VALUES ")
		for r := rng.Intn(4); r >= 0; r-- {
			arity := len(insertCols)
			if rng.Intn(20) == 0 {
				arity += rng.Intn(3) - 1
			}
			sb.WriteByte('(')
			for c := 0; c < arity; c++ {
				if c > 0 {
					sb.WriteString(", ")
				}
				pool := insertCells[c%len(insertCols)]
				if rng.Intn(25) == 0 {
					pool = oddCells
				}
				sb.WriteString(pool[rng.Intn(len(pool))])
			}
			sb.WriteByte(')')
			if r > 0 {
				sb.WriteString(", ")
			}
		}
		if rng.Intn(10) == 0 {
			sb.WriteString(";")
		}
		if sameInsert(t, sb.String(), insertCols) {
			ok++
		} else {
			failed++
		}
	}
	t.Logf("%d statements inserted, %d failed alike", ok, failed)
	if ok < 500 || failed < 500 {
		t.Fatalf("%d statements inserted and %d failed; the generator should exercise both", ok, failed)
	}
}

// FuzzInsertValues compares the literal-cell shortcut with the grammar
// path on the cells of one column of each type.
func FuzzInsertValues(f *testing.F) {
	for c, pool := range insertCells {
		for _, cell := range pool {
			f.Add(cell, uint8(c))
		}
	}
	for c, cell := range oddCells {
		f.Add(cell, uint8(c))
	}
	f.Add(`1), (2`, uint8(0))
	f.Add(`'a', 'b'`, uint8(3))
	f.Fuzz(func(t *testing.T, cells string, col uint8) {
		c := insertCols[int(col)%len(insertCols)]
		sameInsert(t, "INSERT INTO t VALUES ("+cells+")", []table.Column{c})
	})
}

// BenchmarkParseInsert parses one 500-row INSERT shaped like the
// order_rw write stream's.
func BenchmarkParseInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	sb.WriteString("INSERT INTO orders VALUES ")
	for j := 0; j < 500; j++ {
		if j > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, st_makePoint(%.6f, %.6f), 'd%d', %.2f)", 100000+j, 3600000*int64(j),
			116+rng.Float64(), 39+rng.Float64(), rng.Intn(10), rng.Float64()*100)
	}
	src := sb.String()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
