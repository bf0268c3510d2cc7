package sql

import "fmt"

// Statement is any parsed JustQL statement.
type Statement interface{ stmt() }

// ColumnDef is one column in CREATE TABLE: `name type[:mod[:mod...]]`.
type ColumnDef struct {
	Name     string
	TypeName string
	Mods     []string // "primary key", "srid=4326", "compress=gzip"
}

// CreateTableStmt covers both forms of CREATE TABLE.
type CreateTableStmt struct {
	Name     string
	Columns  []ColumnDef // empty for the plugin form
	Plugin   string      // "CREATE TABLE t AS trajectory"
	UserData map[string]string
}

func (*CreateTableStmt) stmt() {}

// CreateViewStmt is CREATE VIEW v AS SELECT ...
type CreateViewStmt struct {
	Name  string
	Query *SelectStmt
}

func (*CreateViewStmt) stmt() {}

// StoreViewStmt is STORE VIEW v TO TABLE t.
type StoreViewStmt struct {
	View  string
	Table string
}

func (*StoreViewStmt) stmt() {}

// DropStmt is DROP TABLE|VIEW name.
type DropStmt struct {
	IsView bool
	Name   string
}

func (*DropStmt) stmt() {}

// ShowStmt is SHOW TABLES|VIEWS.
type ShowStmt struct{ Views bool }

func (*ShowStmt) stmt() {}

// DescStmt is DESC TABLE|VIEW name.
type DescStmt struct {
	IsView bool
	Name   string
}

func (*DescStmt) stmt() {}

// InsertStmt is INSERT INTO t VALUES (...), (...).
type InsertStmt struct {
	Table string
	Rows  [][]Cell
}

// Cell is one VALUES entry: a literal cell parsed straight to its value,
// or the Expr of any other cell.
type Cell struct {
	Val  any
	Expr Expr // nil when Val is the cell's value
}

func (*InsertStmt) stmt() {}

// LoadStmt is LOAD src:name TO geomesa:table CONFIG {..} [FILTER '..'].
type LoadStmt struct {
	SrcKind string // "csv", "hive", "table"
	Src     string
	Dst     string
	Config  map[string]string
	Filter  string
}

func (*LoadStmt) stmt() {}

// SelectItem is one projection: expression, optional alias, or *.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// FromItem is a table reference or a subquery.
type FromItem struct {
	Table    string
	Subquery *SelectStmt
	Alias    string
}

// JoinClause is an equi-join: `JOIN <right> ON leftCol = rightCol`
// (the paper supports JOINs on views through Spark SQL; JUST lowers them
// to the execution engine's hash join).
type JoinClause struct {
	Right    *FromItem
	Left     bool // LEFT JOIN
	LeftCol  string
	RightCol string
}

// ExplainStmt renders the optimized plan of a query instead of running
// it.
type ExplainStmt struct{ Query *SelectStmt }

func (*ExplainStmt) stmt() {}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Items   []SelectItem
	From    *FromItem
	Join    *JoinClause
	Where   Expr
	GroupBy []Expr
	OrderBy []OrderKey
	Limit   int // -1 = none
}

func (*SelectStmt) stmt() {}

// Expr is any expression node.
type Expr interface{ expr() }

// Ident references a column.
type Ident struct{ Name string }

func (*Ident) expr() {}

// Literal is a constant value: int64, float64, string or bool.
type Literal struct{ Val any }

func (*Literal) expr() {}

// BinaryExpr applies Op to L and R. Ops: OR AND = != < <= > >= + - * /
// WITHIN.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

func (*BinaryExpr) expr() {}

// UnaryExpr applies Op ("NOT", "-") to X.
type UnaryExpr struct {
	Op string
	X  Expr
}

func (*UnaryExpr) expr() {}

// FuncCall invokes a preset function.
type FuncCall struct {
	Name string
	Args []Expr
}

func (*FuncCall) expr() {}

// BetweenExpr is `X BETWEEN Lo AND Hi`.
type BetweenExpr struct {
	X, Lo, Hi Expr
}

func (*BetweenExpr) expr() {}

// InExpr is `X IN f(...)` — JustQL uses it for k-NN membership.
type InExpr struct {
	X  Expr
	Fn *FuncCall
}

func (*InExpr) expr() {}

// exprString renders an expression for error messages and plan dumps.
func exprString(e Expr) string {
	switch v := e.(type) {
	case *Ident:
		return v.Name
	case *Literal:
		if s, ok := v.Val.(string); ok {
			return fmt.Sprintf("'%s'", s)
		}
		return fmt.Sprintf("%v", v.Val)
	case *BinaryExpr:
		return fmt.Sprintf("(%s %s %s)", exprString(v.L), v.Op, exprString(v.R))
	case *UnaryExpr:
		return fmt.Sprintf("(%s %s)", v.Op, exprString(v.X))
	case *FuncCall:
		s := v.Name + "("
		for i, a := range v.Args {
			if i > 0 {
				s += ", "
			}
			s += exprString(a)
		}
		return s + ")"
	case *BetweenExpr:
		return fmt.Sprintf("(%s BETWEEN %s AND %s)", exprString(v.X), exprString(v.Lo), exprString(v.Hi))
	case *InExpr:
		return fmt.Sprintf("(%s IN %s)", exprString(v.X), exprString(v.Fn))
	default:
		return fmt.Sprintf("%T", e)
	}
}
