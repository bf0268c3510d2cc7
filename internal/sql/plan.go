package sql

import (
	"fmt"
	"strings"

	"just/internal/core"
	"just/internal/exec"
	"just/internal/geom"
	"just/internal/table"
)

// Plan is a logical plan node (Fig. 8: each node is a logical operation,
// children are inputs).
type Plan interface {
	Schema() *exec.Schema
	Children() []Plan
	String() string
}

// KNNSpec is a pushed-down k-NN predicate.
type KNNSpec struct {
	Point geom.Point
	K     int
}

// ScanPlan reads a stored table. The optimizer pushes the
// spatio-temporal window, k-NN spec, residual predicates and the column
// projection into it; the executor lowers it to index scans.
type ScanPlan struct {
	Table *table.Table
	// Window is the pushed spatial predicate (nil = no spatial filter).
	Window *geom.MBR
	// TMin/TMax are the pushed temporal bounds (nil = unbounded).
	TMin, TMax *int64
	// KNN is the pushed k-NN predicate.
	KNN *KNNSpec
	// FIDEq short-circuits the scan to one attribute-index point lookup
	// when the query pins the primary key (`fid = const`).
	FIDEq any
	// Residual predicates are evaluated on each decoded row during the
	// scan, before the row leaves the storage layer.
	Residual []Expr
	// Cols is the pushed projection (nil = all columns).
	Cols []string
	// Limit stops the scan after emitting this many surviving rows
	// (0 = unlimited) — pushed down from a LIMIT directly above the
	// scan so region workers are cancelled instead of materializing
	// the whole result.
	Limit int
}

// Schema implements Plan.
func (s *ScanPlan) Schema() *exec.Schema {
	full := s.Table.Schema()
	if s.Cols == nil {
		return full
	}
	fields := make([]exec.Field, 0, len(s.Cols))
	for _, c := range s.Cols {
		i := full.Index(c)
		fields = append(fields, full.Field(i))
	}
	return exec.NewSchema(fields...)
}

// Children implements Plan.
func (s *ScanPlan) Children() []Plan { return nil }

func (s *ScanPlan) String() string {
	parts := []string{fmt.Sprintf("Scan[%s", s.Table.Desc.Name)}
	if s.Window != nil {
		parts = append(parts, fmt.Sprintf("window=%v", *s.Window))
	}
	if s.TMin != nil || s.TMax != nil {
		parts = append(parts, "time-bounded")
	}
	if s.KNN != nil {
		parts = append(parts, fmt.Sprintf("knn(k=%d)", s.KNN.K))
	}
	if s.FIDEq != nil {
		parts = append(parts, fmt.Sprintf("fid=%v", s.FIDEq))
	}
	for _, r := range s.Residual {
		parts = append(parts, "residual="+exprString(r))
	}
	if s.Cols != nil {
		parts = append(parts, "cols="+strings.Join(s.Cols, ","))
	}
	if s.Limit > 0 {
		parts = append(parts, fmt.Sprintf("limit=%d", s.Limit))
	}
	return strings.Join(parts, " ") + "]"
}

// ViewPlan reads an in-memory view table.
type ViewPlan struct {
	View *table.View
}

// Schema implements Plan.
func (v *ViewPlan) Schema() *exec.Schema { return v.View.Frame.Schema() }

// Children implements Plan.
func (v *ViewPlan) Children() []Plan { return nil }

func (v *ViewPlan) String() string { return fmt.Sprintf("ViewScan[%s]", v.View.Name) }

// JoinPlan hash-joins two children on column equality.
type JoinPlan struct {
	Left, Right       Plan
	LeftCol, RightCol string
	LeftOuter         bool
}

// Schema implements Plan: left columns then right columns, duplicates
// prefixed "r_".
func (j *JoinPlan) Schema() *exec.Schema {
	fields := append([]exec.Field{}, j.Left.Schema().Fields...)
	taken := map[string]bool{}
	for _, f := range fields {
		taken[f.Name] = true
	}
	for _, f := range j.Right.Schema().Fields {
		name := f.Name
		if taken[name] {
			name = "r_" + name
		}
		taken[name] = true
		fields = append(fields, exec.Field{Name: name, Type: f.Type})
	}
	return exec.NewSchema(fields...)
}

// Children implements Plan.
func (j *JoinPlan) Children() []Plan { return []Plan{j.Left, j.Right} }

func (j *JoinPlan) String() string {
	kind := "Join"
	if j.LeftOuter {
		kind = "LeftJoin"
	}
	return fmt.Sprintf("%s[%s = %s]", kind, j.LeftCol, j.RightCol)
}

// FilterPlan keeps rows satisfying Cond.
type FilterPlan struct {
	Cond  Expr
	Child Plan
}

// Schema implements Plan.
func (f *FilterPlan) Schema() *exec.Schema { return f.Child.Schema() }

// Children implements Plan.
func (f *FilterPlan) Children() []Plan { return []Plan{f.Child} }

func (f *FilterPlan) String() string { return "Filter[" + exprString(f.Cond) + "]" }

// AggregatePlan groups and aggregates.
type AggregatePlan struct {
	Keys  []string
	Aggs  []exec.Agg
	Child Plan
}

// Schema implements Plan.
func (a *AggregatePlan) Schema() *exec.Schema {
	child := a.Child.Schema()
	fields := make([]exec.Field, 0, len(a.Keys)+len(a.Aggs))
	for _, k := range a.Keys {
		i := child.Index(k)
		fields = append(fields, child.Field(i))
	}
	for _, g := range a.Aggs {
		t := exec.TypeFloat
		if g.Kind == exec.AggCount {
			t = exec.TypeInt
		} else if (g.Kind == exec.AggMin || g.Kind == exec.AggMax) && g.Col != "*" {
			if i := child.Index(g.Col); i >= 0 {
				t = child.Field(i).Type
			}
		}
		fields = append(fields, exec.Field{Name: g.Name, Type: t})
	}
	return exec.NewSchema(fields...)
}

// Children implements Plan.
func (a *AggregatePlan) Children() []Plan { return []Plan{a.Child} }

func (a *AggregatePlan) String() string {
	return fmt.Sprintf("Aggregate[keys=%v aggs=%d]", a.Keys, len(a.Aggs))
}

// ProjectPlan evaluates the SELECT items.
type ProjectPlan struct {
	Items  []SelectItem
	Child  Plan
	schema *exec.Schema
}

// Schema implements Plan.
func (p *ProjectPlan) Schema() *exec.Schema { return p.schema }

// Children implements Plan.
func (p *ProjectPlan) Children() []Plan { return []Plan{p.Child} }

func (p *ProjectPlan) String() string {
	var names []string
	for _, it := range p.Items {
		if it.Star {
			names = append(names, "*")
		} else {
			names = append(names, exprString(it.Expr))
		}
	}
	return "Project[" + strings.Join(names, ", ") + "]"
}

// SortPlan orders rows.
type SortPlan struct {
	Keys  []OrderKey
	Child Plan
}

// Schema implements Plan.
func (s *SortPlan) Schema() *exec.Schema { return s.Child.Schema() }

// Children implements Plan.
func (s *SortPlan) Children() []Plan { return []Plan{s.Child} }

func (s *SortPlan) String() string { return fmt.Sprintf("Sort[%d keys]", len(s.Keys)) }

// LimitPlan truncates the result.
type LimitPlan struct {
	N     int
	Child Plan
}

// Schema implements Plan.
func (l *LimitPlan) Schema() *exec.Schema { return l.Child.Schema() }

// Children implements Plan.
func (l *LimitPlan) Children() []Plan { return []Plan{l.Child} }

func (l *LimitPlan) String() string { return fmt.Sprintf("Limit[%d]", l.N) }

// PlanString renders a plan tree for EXPLAIN-style output and tests.
func PlanString(p Plan) string {
	var sb strings.Builder
	var walk func(p Plan, depth int)
	walk = func(p Plan, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(p.String())
		sb.WriteByte('\n')
		for _, c := range p.Children() {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	return sb.String()
}

// analyzer resolves names against the meta table and builds the analyzed
// logical plan (SQL Parse step of Section VI).
type analyzer struct {
	engine *core.Engine
	user   string
}

// analyzeSelect builds the analyzed (unoptimized) plan for a SELECT.
func (a *analyzer) analyzeSelect(st *SelectStmt) (Plan, error) {
	if st.From == nil {
		return nil, fmt.Errorf("sql: SELECT without FROM")
	}
	base, err := a.analyzeFromItem(st.From)
	if err != nil {
		return nil, err
	}

	if st.Join != nil {
		right, err := a.analyzeFromItem(st.Join.Right)
		if err != nil {
			return nil, err
		}
		lc, rc, err := resolveJoinKeys(st.Join, base.Schema(), right.Schema())
		if err != nil {
			return nil, err
		}
		base = &JoinPlan{
			Left: base, Right: right,
			LeftCol: lc, RightCol: rc,
			LeftOuter: st.Join.Left,
		}
	}

	// Expand SELECT * and validate identifiers.
	schema := base.Schema()
	items, err := expandItems(st.Items, schema)
	if err != nil {
		return nil, err
	}

	if st.Where != nil {
		if err := checkIdents(st.Where, schema); err != nil {
			return nil, err
		}
		base = &FilterPlan{Cond: st.Where, Child: base}
	}

	// GROUP BY may reference projection aliases of computed expressions
	// (e.g. `st_geohash(geom, 7) AS block ... GROUP BY block`): inject a
	// pre-projection that materializes those as columns first.
	groupBy, base, items, err := materializeGroupKeys(st.GroupBy, items, base)
	if err != nil {
		return nil, err
	}

	// Aggregate detection.
	keys, aggs, aggItems, hasAgg, err := extractAggs(items, groupBy, base.Schema())
	if err != nil {
		return nil, err
	}
	if hasAgg {
		base = &AggregatePlan{Keys: keys, Aggs: aggs, Child: base}
		items = aggItems
	}

	// Sort before the final projection so ORDER BY can reference
	// non-projected columns (the paper's Fig. 8 example).
	if len(st.OrderBy) > 0 {
		for _, k := range st.OrderBy {
			if err := checkIdents(k.Expr, base.Schema()); err != nil {
				return nil, err
			}
		}
		base = &SortPlan{Keys: st.OrderBy, Child: base}
	}

	proj, err := newProjectPlan(items, base)
	if err != nil {
		return nil, err
	}
	base = proj

	if st.Limit >= 0 {
		base = &LimitPlan{N: st.Limit, Child: base}
	}
	return base, nil
}

// analyzeFromItem resolves one FROM source: subquery, view, or table
// (views shadow tables).
func (a *analyzer) analyzeFromItem(fi *FromItem) (Plan, error) {
	if fi.Subquery != nil {
		return a.analyzeSelect(fi.Subquery)
	}
	if v, err := a.engine.Views().Get(a.user, fi.Table); err == nil {
		return &ViewPlan{View: v}, nil
	}
	t, err := a.engine.OpenTable(a.user, fi.Table)
	if err != nil {
		return nil, err
	}
	return &ScanPlan{Table: t}, nil
}

// resolveJoinKeys locates the join columns: each key must resolve in its
// own side; if the declared left key only exists on the right (and vice
// versa), the keys are swapped.
func resolveJoinKeys(jc *JoinClause, left, right *exec.Schema) (string, string, error) {
	l, r := jc.LeftCol, jc.RightCol
	if left.Index(l) >= 0 && right.Index(r) >= 0 {
		return l, r, nil
	}
	if left.Index(r) >= 0 && right.Index(l) >= 0 {
		return r, l, nil
	}
	return "", "", fmt.Errorf("sql: join keys %q/%q do not resolve (left has %v, right has %v)",
		l, r, left.Names(), right.Names())
}

func expandItems(items []SelectItem, schema *exec.Schema) ([]SelectItem, error) {
	var out []SelectItem
	for _, it := range items {
		if it.Star {
			for _, f := range schema.Fields {
				out = append(out, SelectItem{Expr: &Ident{Name: f.Name}})
			}
			continue
		}
		if err := checkIdents(it.Expr, schema); err != nil {
			return nil, err
		}
		out = append(out, it)
	}
	return out, nil
}

// checkIdents verifies every column reference resolves; "item" and "*"
// are pseudo-columns (plugin entity / COUNT-star).
func checkIdents(e Expr, schema *exec.Schema) error {
	switch v := e.(type) {
	case *Ident:
		if v.Name == "item" || v.Name == "*" {
			return nil
		}
		if schema.Index(v.Name) < 0 {
			return fmt.Errorf("sql: unknown column %q", v.Name)
		}
	case *BinaryExpr:
		if err := checkIdents(v.L, schema); err != nil {
			return err
		}
		return checkIdents(v.R, schema)
	case *UnaryExpr:
		return checkIdents(v.X, schema)
	case *BetweenExpr:
		if err := checkIdents(v.X, schema); err != nil {
			return err
		}
		if err := checkIdents(v.Lo, schema); err != nil {
			return err
		}
		return checkIdents(v.Hi, schema)
	case *FuncCall:
		for _, arg := range v.Args {
			if err := checkIdents(arg, schema); err != nil {
				return err
			}
		}
	case *InExpr:
		if err := checkIdents(v.X, schema); err != nil {
			return err
		}
		return checkIdents(v.Fn, schema)
	}
	return nil
}

// materializeGroupKeys handles GROUP BY over computed expressions: when
// a group key is an alias of a non-column projection (or any non-ident
// expression), it inserts a projection below the aggregate that computes
// the key as a real column, and rewrites the SELECT items accordingly.
func materializeGroupKeys(groupBy []Expr, items []SelectItem, base Plan) ([]Expr, Plan, []SelectItem, error) {
	if len(groupBy) == 0 {
		return groupBy, base, items, nil
	}
	schema := base.Schema()
	needsPre := false
	for _, g := range groupBy {
		if id, ok := g.(*Ident); ok && schema.Index(id.Name) >= 0 {
			continue
		}
		needsPre = true
	}
	if !needsPre {
		return groupBy, base, items, nil
	}
	// Pre-projection columns: one per group key (named by alias or
	// generated), plus every source column any aggregate needs.
	var preItems []SelectItem
	outGroup := make([]Expr, len(groupBy))
	for i, g := range groupBy {
		name := fmt.Sprintf("group_%d", i)
		expr := g
		if id, ok := g.(*Ident); ok {
			if schema.Index(id.Name) >= 0 {
				preItems = append(preItems, SelectItem{Expr: id})
				outGroup[i] = id
				continue
			}
			// Alias of a projected expression?
			resolved := false
			for _, it := range items {
				if it.Alias == id.Name && it.Expr != nil {
					expr = it.Expr
					name = id.Name
					resolved = true
					break
				}
			}
			if !resolved {
				return nil, nil, nil, fmt.Errorf("sql: unknown group column %q", id.Name)
			}
		}
		preItems = append(preItems, SelectItem{Expr: expr, Alias: name})
		outGroup[i] = &Ident{Name: name}
		// Rewrite SELECT items that used the same expression/alias.
		for j, it := range items {
			if it.Alias == name || exprString(it.Expr) == exprString(expr) {
				alias := it.Alias
				if alias == "" {
					alias = name
				}
				items[j] = SelectItem{Expr: &Ident{Name: name}, Alias: alias}
			}
		}
	}
	// Carry aggregate source columns through the pre-projection.
	carried := map[string]bool{}
	for _, it := range preItems {
		if id, ok := it.Expr.(*Ident); ok && it.Alias == "" {
			carried[id.Name] = true
		}
		if it.Alias != "" {
			carried[it.Alias] = true
		}
	}
	for _, it := range items {
		if call, ok := it.Expr.(*FuncCall); ok {
			if _, isAgg := exec.ParseAgg(call.Name); isAgg {
				for _, a := range call.Args {
					if id, ok := a.(*Ident); ok && id.Name != "*" && !carried[id.Name] {
						if schema.Index(id.Name) < 0 {
							return nil, nil, nil, fmt.Errorf("sql: unknown column %q", id.Name)
						}
						preItems = append(preItems, SelectItem{Expr: id})
						carried[id.Name] = true
					}
				}
			}
		}
	}
	pre, err := newProjectPlan(preItems, base)
	if err != nil {
		return nil, nil, nil, err
	}
	return outGroup, pre, items, nil
}

// extractAggs splits projections into group keys and aggregate calls.
func extractAggs(items []SelectItem, groupBy []Expr, schema *exec.Schema) (
	keys []string, aggs []exec.Agg, outItems []SelectItem, hasAgg bool, err error) {
	for _, g := range groupBy {
		id, ok := g.(*Ident)
		if !ok {
			return nil, nil, nil, false, fmt.Errorf("sql: GROUP BY supports column names only")
		}
		if schema.Index(id.Name) < 0 {
			return nil, nil, nil, false, fmt.Errorf("sql: unknown group column %q", id.Name)
		}
		keys = append(keys, id.Name)
	}
	for _, it := range items {
		if call, ok := it.Expr.(*FuncCall); ok {
			if _, isAgg := exec.ParseAgg(call.Name); isAgg {
				hasAgg = true
			}
		}
	}
	if !hasAgg && len(groupBy) == 0 {
		return nil, nil, items, false, nil
	}
	// Build agg list and rewrite items against the aggregate schema.
	for i, it := range items {
		switch v := it.Expr.(type) {
		case *Ident:
			found := false
			for _, k := range keys {
				if k == v.Name {
					found = true
					break
				}
			}
			if !found {
				return nil, nil, nil, false,
					fmt.Errorf("sql: column %q must appear in GROUP BY or an aggregate", v.Name)
			}
			outItems = append(outItems, it)
		case *FuncCall:
			kind, isAgg := exec.ParseAgg(v.Name)
			if !isAgg {
				return nil, nil, nil, false,
					fmt.Errorf("sql: non-aggregate %q in grouped query", v.Name)
			}
			col := "*"
			if len(v.Args) == 1 {
				if id, ok := v.Args[0].(*Ident); ok {
					col = id.Name
				} else {
					return nil, nil, nil, false,
						fmt.Errorf("sql: aggregate argument must be a column")
				}
			}
			name := it.Alias
			if name == "" {
				name = fmt.Sprintf("%s_%d", v.Name, i)
			}
			aggs = append(aggs, exec.Agg{Kind: kind, Col: col, Name: name})
			outItems = append(outItems, SelectItem{Expr: &Ident{Name: name}, Alias: it.Alias})
		default:
			return nil, nil, nil, false,
				fmt.Errorf("sql: unsupported projection in grouped query")
		}
	}
	return keys, aggs, outItems, true, nil
}

// analysisFuncs are the 1-N / N-M operations the executor implements with
// its own operators (Spark UDFs cannot express them, Section V-D).
var analysisFuncs = map[string]bool{
	"st_trajnoisefilter":  true,
	"st_trajsegmentation": true,
	"st_trajstaypoint":    true,
	"st_dbscan":           true,
}

func newProjectPlan(items []SelectItem, child Plan) (*ProjectPlan, error) {
	schema := child.Schema()
	fields := make([]exec.Field, 0, len(items))
	for i, it := range items {
		name := it.Alias
		var typ exec.DataType
		switch v := it.Expr.(type) {
		case *Ident:
			if name == "" {
				name = v.Name
			}
			if v.Name == "item" {
				typ = exec.TypeBytes // whole-entity pseudo column
			} else if j := schema.Index(v.Name); j >= 0 {
				typ = schema.Field(j).Type
			}
		case *FuncCall:
			if name == "" {
				name = v.Name
			}
			if analysisFuncs[v.Name] {
				// 1-N / N-M operators define their own output schema.
				s, err := analysisOutputSchema(v.Name, schema)
				if err != nil {
					return nil, err
				}
				if len(items) != 1 {
					return nil, fmt.Errorf("sql: %s must be the only projection", v.Name)
				}
				return &ProjectPlan{Items: items, Child: child, schema: s}, nil
			}
			typ = exec.TypeFloat // scalar funcs default; refined at runtime
			if strings.HasPrefix(v.Name, "st_") {
				typ = exec.TypeGeometry
			}
			if v.Name == "st_aswkt" || v.Name == "st_geohash" {
				typ = exec.TypeString
			}
			if v.Name == "to_time" || v.Name == "to_long" || v.Name == "long_to_date_ms" {
				typ = exec.TypeInt
			}
		default:
			if name == "" {
				name = fmt.Sprintf("col%d", i)
			}
			typ = exec.TypeFloat
		}
		fields = append(fields, exec.Field{Name: name, Type: typ})
	}
	return &ProjectPlan{Items: items, Child: child, schema: exec.NewSchema(fields...)}, nil
}

// analysisOutputSchema defines the result schema of each analysis
// operation.
func analysisOutputSchema(name string, input *exec.Schema) (*exec.Schema, error) {
	switch name {
	case "st_trajnoisefilter", "st_trajsegmentation":
		return input, nil // trajectory rows in, trajectory rows out
	case "st_trajstaypoint":
		return exec.NewSchema(
			exec.Field{Name: "tid", Type: exec.TypeString},
			exec.Field{Name: "center", Type: exec.TypeGeometry},
			exec.Field{Name: "arrive_time", Type: exec.TypeTime},
			exec.Field{Name: "depart_time", Type: exec.TypeTime},
			exec.Field{Name: "point_count", Type: exec.TypeInt},
		), nil
	case "st_dbscan":
		return exec.NewSchema(
			exec.Field{Name: "cluster", Type: exec.TypeInt},
			exec.Field{Name: "geom", Type: exec.TypeGeometry},
		), nil
	default:
		return nil, fmt.Errorf("sql: unknown analysis function %q", name)
	}
}
