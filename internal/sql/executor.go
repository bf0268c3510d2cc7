package sql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"just/internal/analysis"
	"just/internal/core"
	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/kv"
	"just/internal/table"
)

// Session executes JustQL for one user against an engine. Sessions are
// cheap; the engine (and its execution context) is shared, mirroring the
// paper's shared Spark context.
type Session struct {
	engine *core.Engine
	user   string
}

// NewSession creates a session for the given user namespace.
func NewSession(e *core.Engine, user string) *Session {
	return &Session{engine: e, user: user}
}

// Result is the outcome of one statement: a frame for queries, a message
// for DDL/DML.
type Result struct {
	Frame   *exec.DataFrame
	Message string
	// Plan is the optimized logical plan of a SELECT (EXPLAIN-style
	// introspection for tests and the CLI).
	Plan Plan
}

// Execute parses, plans and runs one JustQL statement under a
// background context (no deadline, no cancellation).
func (s *Session) Execute(src string) (*Result, error) {
	return s.ExecuteContext(context.Background(), src)
}

// ExecuteContext parses, plans and runs one JustQL statement. ctx
// cancels the statement end-to-end — scans abort inside the storage
// workers, operators abort between batches — surfacing as the typed
// exec.ErrQueryCanceled / exec.ErrDeadlineExceeded. A per-query memory
// budget attached with exec.WithQuery is charged by every dataframe
// materialization and scan buffer.
func (s *Session) ExecuteContext(ctx context.Context, src string) (*Result, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return s.ExecuteStmtContext(ctx, stmt)
}

// ExecuteStmt runs an already-parsed statement under a background
// context.
func (s *Session) ExecuteStmt(stmt Statement) (*Result, error) {
	return s.ExecuteStmtContext(context.Background(), stmt)
}

// ExecuteStmtContext runs an already-parsed statement under ctx.
func (s *Session) ExecuteStmtContext(ctx context.Context, stmt Statement) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := exec.MapCtxErr(ctx.Err()); err != nil {
		return nil, err
	}
	switch v := stmt.(type) {
	case *CreateTableStmt:
		return s.execCreateTable(v)
	case *CreateViewStmt:
		return s.execCreateView(ctx, v)
	case *StoreViewStmt:
		return s.execStoreView(ctx, v)
	case *DropStmt:
		return s.execDrop(ctx, v)
	case *ShowStmt:
		return s.execShow(v)
	case *DescStmt:
		return s.execDesc(v)
	case *InsertStmt:
		return s.execInsert(ctx, v)
	case *LoadStmt:
		return s.execLoad(ctx, v)
	case *SelectStmt:
		return s.execSelect(ctx, v)
	case *ExplainStmt:
		a := &analyzer{engine: s.engine, user: s.user}
		plan, err := a.analyzeSelect(v.Query)
		if err != nil {
			return nil, err
		}
		plan = Optimize(plan)
		return &Result{Message: PlanString(plan), Plan: plan}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
	}
}

// --- DDL ---

func (s *Session) execCreateTable(st *CreateTableStmt) (*Result, error) {
	if st.Plugin != "" {
		if err := s.engine.CreateTableAs(s.user, st.Name, strings.ToLower(st.Plugin)); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("plugin table %s created", st.Name)}, nil
	}
	desc := &table.Desc{Name: st.Name, User: s.user, Kind: table.KindCommon}
	for _, cd := range st.Columns {
		t, ok := exec.ParseType(cd.TypeName)
		if !ok {
			return nil, fmt.Errorf("sql: unknown type %q for column %q", cd.TypeName, cd.Name)
		}
		col := table.Column{Name: cd.Name, Type: t}
		if t == exec.TypeGeometry {
			col.Subtype = cd.TypeName
		}
		for _, mod := range cd.Mods {
			switch {
			case mod == "primary key":
				col.PrimaryKey = true
			case strings.HasPrefix(mod, "srid="):
				fmt.Sscanf(mod, "srid=%d", &col.SRID)
			case strings.HasPrefix(mod, "compress="):
				col.Compress = strings.TrimPrefix(mod, "compress=")
			default:
				return nil, fmt.Errorf("sql: unknown column modifier %q", mod)
			}
		}
		desc.Columns = append(desc.Columns, col)
	}
	if err := applyUserData(desc, st.UserData); err != nil {
		return nil, err
	}
	if err := s.engine.CreateTable(desc); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("table %s created", st.Name)}, nil
}

// applyUserData interprets the USERDATA hints: `geomesa.indices.enabled`
// selects index strategies (comma-separated), `just.period` sets the
// time-period length (day/week/month/year/century).
func applyUserData(desc *table.Desc, ud map[string]string) error {
	if ud == nil {
		return nil
	}
	var periodMS int64
	if p, ok := ud["just.period"]; ok {
		ms, err := periodByName(p)
		if err != nil {
			return err
		}
		periodMS = ms
	}
	if list, ok := ud["geomesa.indices.enabled"]; ok {
		desc.Indexes = []table.IndexDesc{{Strategy: "attr", ID: 0}}
		for i, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(strings.ToLower(name))
			if name == "" || name == "attr" {
				continue
			}
			if _, ok := index.New(name, index.Config{}); !ok {
				return fmt.Errorf("sql: unknown index strategy %q in USERDATA", name)
			}
			desc.Indexes = append(desc.Indexes, table.IndexDesc{
				Strategy: name, ID: uint8(i + 1), PeriodMS: periodMS,
			})
		}
	} else if periodMS > 0 {
		for i := range desc.Indexes {
			desc.Indexes[i].PeriodMS = periodMS
		}
	}
	return nil
}

func periodByName(name string) (int64, error) {
	day := int64(24 * time.Hour / time.Millisecond)
	switch strings.ToLower(name) {
	case "hour":
		return day / 24, nil
	case "day":
		return day, nil
	case "week":
		return 7 * day, nil
	case "month":
		return 30 * day, nil
	case "year":
		return 365 * day, nil
	case "century":
		return 36500 * day, nil
	default:
		return 0, fmt.Errorf("sql: unknown period %q", name)
	}
}

func (s *Session) execCreateView(ctx context.Context, st *CreateViewStmt) (*Result, error) {
	res, err := s.execSelect(ctx, st.Query)
	if err != nil {
		return nil, err
	}
	s.engine.Views().Put(s.user, st.Name, res.Frame)
	return &Result{Message: fmt.Sprintf("view %s created (%d rows cached)", st.Name, res.Frame.Count())}, nil
}

func (s *Session) execStoreView(ctx context.Context, st *StoreViewStmt) (*Result, error) {
	v, err := s.engine.Views().Get(s.user, st.View)
	if err != nil {
		return nil, err
	}
	schema := v.Frame.Schema()
	// Auto-create the target table from the view schema if missing.
	if _, err := s.engine.Catalog().Get(s.user, st.Table); err != nil {
		desc := &table.Desc{Name: st.Table, User: s.user, Kind: table.KindCommon}
		for _, f := range schema.Fields {
			desc.Columns = append(desc.Columns, table.Column{Name: f.Name, Type: f.Type})
		}
		if len(desc.Columns) > 0 {
			desc.Columns[0].PrimaryKey = true
		}
		if err := s.engine.CreateTable(desc); err != nil {
			return nil, err
		}
	}
	rows := v.Frame.Collect()
	if err := s.engine.BulkInsertContext(ctx, s.user, st.Table, rows); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("stored %d rows from view %s into table %s", len(rows), st.View, st.Table)}, nil
}

func (s *Session) execDrop(ctx context.Context, st *DropStmt) (*Result, error) {
	if st.IsView {
		if err := s.engine.Views().Drop(s.user, st.Name); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("view %s dropped", st.Name)}, nil
	}
	if err := s.engine.DropTable(ctx, s.user, st.Name); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("table %s dropped", st.Name)}, nil
}

func (s *Session) execShow(st *ShowStmt) (*Result, error) {
	var names []string
	label := "table"
	if st.Views {
		names = s.engine.Views().List(s.user)
		label = "view"
	} else {
		names = s.engine.Catalog().List(s.user)
	}
	rows := make([]exec.Row, len(names))
	for i, n := range names {
		rows[i] = exec.Row{n}
	}
	df, err := exec.NewDataFrame(s.engine.Context(),
		exec.NewSchema(exec.Field{Name: label + "_name", Type: exec.TypeString}), rows)
	if err != nil {
		return nil, err
	}
	return &Result{Frame: df}, nil
}

func (s *Session) execDesc(st *DescStmt) (*Result, error) {
	schema := exec.NewSchema(
		exec.Field{Name: "column", Type: exec.TypeString},
		exec.Field{Name: "type", Type: exec.TypeString},
		exec.Field{Name: "modifiers", Type: exec.TypeString},
	)
	var rows []exec.Row
	if st.IsView {
		v, err := s.engine.Views().Get(s.user, st.Name)
		if err != nil {
			return nil, err
		}
		for _, f := range v.Frame.Schema().Fields {
			rows = append(rows, exec.Row{f.Name, f.Type.String(), ""})
		}
	} else {
		d, err := s.engine.Catalog().Get(s.user, st.Name)
		if err != nil {
			return nil, err
		}
		for _, c := range d.Columns {
			var mods []string
			if c.PrimaryKey {
				mods = append(mods, "primary key")
			}
			if c.SRID != 0 {
				mods = append(mods, fmt.Sprintf("srid=%d", c.SRID))
			}
			if c.Compress != "" {
				mods = append(mods, "compress="+c.Compress)
			}
			typeName := c.Type.String()
			if c.Subtype != "" {
				typeName = c.Subtype
			}
			rows = append(rows, exec.Row{c.Name, typeName, strings.Join(mods, ", ")})
		}
	}
	df, err := exec.NewDataFrame(s.engine.Context(), schema, rows)
	if err != nil {
		return nil, err
	}
	return &Result{Frame: df}, nil
}

// --- DML ---

// execInsert evaluates the VALUES rows and writes them all through
// Engine.Insert, which rides Table.InsertBatchCtx — a multi-row INSERT is
// one group commit per touched storage region, not one Put per value.
func (s *Session) execInsert(ctx context.Context, st *InsertStmt) (*Result, error) {
	t, err := s.engine.OpenTable(s.user, st.Table)
	if err != nil {
		return nil, err
	}
	cols := t.Desc.Columns
	var rows []exec.Row
	for _, exprRow := range st.Rows {
		if len(exprRow) != len(cols) {
			return nil, fmt.Errorf("sql: INSERT arity %d != table arity %d", len(exprRow), len(cols))
		}
		row := make(exec.Row, len(cols))
		for i, e := range exprRow {
			v, err := evalConst(foldExpr(e))
			if err != nil {
				return nil, err
			}
			cv, err := coerceValue(cols[i], v)
			if err != nil {
				return nil, err
			}
			row[i] = cv
		}
		rows = append(rows, row)
	}
	if err := s.engine.InsertContext(ctx, t.Desc.User, t.Desc.Name, rows); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("%d rows inserted into %s", len(rows), st.Table)}, nil
}

// coerceValue adapts a literal to the column type: time strings, WKT
// geometry, int/float widening.
func coerceValue(col table.Column, v any) (any, error) {
	if v == nil {
		return nil, nil
	}
	switch col.Type {
	case exec.TypeTime:
		return toTimeMS(v)
	case exec.TypeGeometry:
		if g, ok := v.(geom.Geometry); ok {
			return g, nil
		}
		if str, ok := v.(string); ok {
			return geom.ParseWKT(str)
		}
		return nil, fmt.Errorf("sql: column %q expects geometry, got %T", col.Name, v)
	case exec.TypeFloat:
		return toFloat(v)
	case exec.TypeInt:
		if n, ok := v.(int64); ok {
			return n, nil // all 64 bits; float64 would round past 2^53
		}
		f, err := toFloat(v)
		if err != nil {
			return nil, fmt.Errorf("sql: column %q: %w", col.Name, err)
		}
		return int64(f), nil
	case exec.TypeString:
		if str, ok := v.(string); ok {
			return str, nil
		}
		return fmt.Sprintf("%v", v), nil
	case exec.TypeBool:
		if b, ok := v.(bool); ok {
			return b, nil
		}
		return nil, fmt.Errorf("sql: column %q expects bool, got %T", col.Name, v)
	default:
		return v, nil
	}
}

// --- SELECT ---

func (s *Session) execSelect(ctx context.Context, st *SelectStmt) (*Result, error) {
	a := &analyzer{engine: s.engine, user: s.user}
	plan, err := a.analyzeSelect(st)
	if err != nil {
		return nil, err
	}
	plan = Optimize(plan)
	ex := &executor{
		session: s,
		ctx:     ctx,
		ectx:    s.engine.Context().Bind(ctx),
	}
	df, err := ex.run(plan)
	if err != nil {
		ex.cleanup(nil)
		return nil, err
	}
	ex.cleanup(df)
	return &Result{Frame: df, Plan: plan}, nil
}

// executor runs an optimized plan. Every plan node takes and returns a
// frame of column batches; rows appear only where a row source enters
// (point lookup, k-NN, aggregate groups, analysis operators) and where
// the caller collects the result. It tracks the frames it creates so
// their memory returns to the budgets. ctx is the query's lifecycle
// (cancellation, deadline); ectx is the engine execution context bound
// to it (and to the per-query memory budget, when the context carries
// one).
type executor struct {
	session *Session
	ctx     context.Context
	ectx    *exec.Context
	temps   []*exec.DataFrame
}

func (ex *executor) track(df *exec.DataFrame) *exec.DataFrame {
	ex.temps = append(ex.temps, df)
	return df
}

// newFrame starts a tracked frame, so an operator that fails midway
// leaves its partial output to cleanup.
func (ex *executor) newFrame(schema *exec.Schema) *exec.DataFrame {
	return ex.track(exec.NewFrame(ex.ectx, schema))
}

// fromRows wraps a row source's output into a tracked frame.
func (ex *executor) fromRows(schema *exec.Schema, rows []exec.Row) (*exec.DataFrame, error) {
	df, err := exec.NewDataFrame(ex.ectx, schema, rows)
	if err != nil {
		return nil, err
	}
	return ex.track(df), nil
}

// cleanup releases every tracked frame except keep (the query result).
func (ex *executor) cleanup(keep *exec.DataFrame) {
	for _, df := range ex.temps {
		if df != keep {
			df.Release()
		}
	}
	ex.temps = nil
}

func (ex *executor) run(p Plan) (*exec.DataFrame, error) {
	// Every plan node re-checks the query lifecycle on entry, so a
	// cancel or deadline between operators aborts before the next
	// materialization rather than after it.
	if err := ex.ectx.Err(); err != nil {
		return nil, err
	}
	switch v := p.(type) {
	case *ScanPlan:
		return ex.runScan(v, nil)
	case *ViewPlan:
		// Borrowed, never released here: the alias rebinds the cached
		// batches to this query's cancellation and budget (the frame was
		// built under the long-finished creating query's context).
		return v.View.Frame.Bound(ex.ectx), nil
	case *FilterPlan:
		child, err := ex.run(v.Child)
		if err != nil {
			return nil, err
		}
		fn, err := bind(v.Cond, child.Schema())
		if err != nil {
			return nil, err
		}
		where := filter{preds: []predicate{{fn, v.Cond}}}
		return ex.mapBatches(child, child.Schema(), where.apply)
	case *AggregatePlan:
		// Over a scan, the aggregator is the scan's sink and sees its
		// batches before they are narrowed to the scan's projection.
		in := v.Child.Schema()
		scan, isScan := v.Child.(*ScanPlan)
		if isScan {
			in = scan.Table.Schema()
		}
		keyIdx := make([]int, len(v.Keys))
		for i, k := range v.Keys {
			if keyIdx[i] = in.Index(k); keyIdx[i] < 0 {
				return nil, fmt.Errorf("sql: unknown group key %q", k)
			}
		}
		aggIdx := make([]int, len(v.Aggs))
		for i, a := range v.Aggs {
			if a.Col == "*" || a.Col == "" {
				aggIdx[i] = -1
			} else if aggIdx[i] = in.Index(a.Col); aggIdx[i] < 0 {
				return nil, fmt.Errorf("sql: unknown aggregate column %q", a.Col)
			}
		}
		agg := exec.NewAggregator(in, keyIdx, v.Aggs, aggIdx)
		if isScan {
			if _, err := ex.runScan(scan, agg); err != nil {
				return nil, err
			}
		} else {
			child, err := ex.run(v.Child)
			if err != nil {
				return nil, err
			}
			for _, b := range child.Batches() {
				agg.Add(b)
			}
		}
		schema, rows, err := agg.Result()
		if err != nil {
			return nil, err
		}
		return ex.fromRows(schema, rows)
	case *SortPlan:
		child, err := ex.run(v.Child)
		if err != nil {
			return nil, err
		}
		return ex.runSort(v, child)
	case *LimitPlan:
		child, err := ex.run(v.Child)
		if err != nil {
			return nil, err
		}
		if child.Count() <= v.N {
			return child, nil
		}
		remaining := v.N
		return ex.mapBatches(child, child.Schema(), func(b *exec.ColumnBatch) (*exec.ColumnBatch, error) {
			h := b.Head(remaining)
			remaining -= h.Len()
			return h, nil
		})
	case *JoinPlan:
		left, err := ex.run(v.Left)
		if err != nil {
			return nil, err
		}
		right, err := ex.run(v.Right)
		if err != nil {
			return nil, err
		}
		schema := v.Schema()
		out := ex.newFrame(schema)
		joined := exec.JoinBatches(schema, left.Schema().Len(),
			left.Batches(), left.Schema().Index(v.LeftCol),
			right.Batches(), right.Schema().Index(v.RightCol), v.LeftOuter)
		if err := out.Append(joined); err != nil {
			return nil, err
		}
		return out, nil
	case *ProjectPlan:
		child, err := ex.run(v.Child)
		if err != nil {
			return nil, err
		}
		// 1-N and N-M analysis operators define their own output.
		if len(v.Items) == 1 {
			if call, ok := v.Items[0].Expr.(*FuncCall); ok && analysisFuncs[call.Name] {
				return ex.runAnalysis(call, child, v.Schema())
			}
		}
		return ex.project(child, v.Items, v.Schema())
	default:
		return nil, fmt.Errorf("sql: cannot execute %T", p)
	}
}

// predicate is a bound boolean expression; src names it in errors.
type predicate struct {
	fn  evalFn
	src Expr
}

// filter is a conjunction of predicates over batches of one schema.
type filter struct {
	preds []predicate
	r     env // the position under evaluation, reused across batches
}

// apply narrows b to the live rows every predicate keeps. It returns b
// itself when all rows pass, and a dense copy when fewer than half do,
// so a selective filter does not retain the rows it rejected.
func (f *filter) apply(b *exec.ColumnBatch) (*exec.ColumnBatch, error) {
	if len(f.preds) == 0 {
		return b, nil
	}
	r := &f.r
	r.b = b
	n := b.Len()
	var sel []int32 // nil until the first rejected row
	for i := 0; i < n; i++ {
		r.p = b.Live(i)
		keep := true
		for _, pr := range f.preds {
			val, err := pr.fn(r)
			if err != nil {
				return nil, err
			}
			ok, isBool := val.(bool)
			if !isBool {
				return nil, fmt.Errorf("sql: predicate %s is not boolean", exprString(pr.src))
			}
			if !ok {
				keep = false
				break
			}
		}
		switch {
		case keep && sel != nil:
			sel = append(sel, int32(r.p))
		case !keep && sel == nil:
			sel = make([]int32, i, n)
			for k := range sel {
				sel[k] = int32(b.Live(k))
			}
		}
	}
	switch {
	case sel == nil:
		return b, nil
	case len(sel)*2 < b.Rows():
		return b.WithSel(sel).Compact(), nil
	}
	return b.WithSel(sel), nil
}

// projection evaluates SELECT items over batches of one schema: a bare
// column shares the input's vector, anything else is computed
// position-at-a-time into a new one.
type projection struct {
	schema *exec.Schema
	src    []int    // input column per item, or -1 = computed
	fns    []evalFn // per computed item
	// identity: the output is the input, column for column.
	identity bool
	r        env // the position under evaluation, reused across batches
}

func newProjection(items []SelectItem, in, schema *exec.Schema) (*projection, error) {
	p := &projection{schema: schema, src: make([]int, len(items)), fns: make([]evalFn, len(items))}
	p.identity = len(items) == in.Len()
	for i, it := range items {
		p.src[i] = -1
		if id, ok := it.Expr.(*Ident); ok {
			p.src[i] = in.Index(id.Name)
		}
		if p.src[i] < 0 {
			fn, err := bind(it.Expr, in)
			if err != nil {
				return nil, err
			}
			p.fns[i] = fn
		}
		p.identity = p.identity && p.src[i] == i && schema.Field(i).Name == in.Field(i).Name
	}
	return p, nil
}

// columnItems is the projection list selecting the named columns.
func columnItems(names []string) []SelectItem {
	items := make([]SelectItem, len(names))
	for i, n := range names {
		items[i] = SelectItem{Expr: &Ident{Name: n}}
	}
	return items
}

func (p *projection) apply(b *exec.ColumnBatch) (*exec.ColumnBatch, error) {
	if p.identity {
		return b, nil
	}
	cols := make([]exec.Vector, len(p.src))
	r := &p.r
	r.b = b
	for i, j := range p.src {
		if j >= 0 {
			cols[i] = *b.Vec(j)
			continue
		}
		vals := make([]any, b.Rows())
		for k, n := 0, b.Len(); k < n; k++ {
			r.p = b.Live(k)
			val, err := p.fns[i](r)
			if err != nil {
				return nil, err
			}
			vals[r.p] = val
		}
		cols[i] = exec.VectorOf(p.schema.Field(i).Type, vals)
	}
	return b.Derive(p.schema, cols), nil
}

func (ex *executor) project(child *exec.DataFrame, items []SelectItem, schema *exec.Schema) (*exec.DataFrame, error) {
	p, err := newProjection(items, child.Schema(), schema)
	if err != nil {
		return nil, err
	}
	if p.identity {
		return child, nil
	}
	return ex.mapBatches(child, schema, p.apply)
}

// mapBatches is the shape of every one-batch-in, one-batch-out
// operator: a new frame over schema holding fn of each input batch.
func (ex *executor) mapBatches(child *exec.DataFrame, schema *exec.Schema, fn func(*exec.ColumnBatch) (*exec.ColumnBatch, error)) (*exec.DataFrame, error) {
	out := ex.newFrame(schema)
	for _, b := range child.Batches() {
		mapped, err := fn(b)
		if err != nil {
			return nil, err
		}
		if err := out.Append(mapped); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runSort orders child by the plan's keys. A key that is not a bare
// column is computed into a trailing column first and dropped after the
// sort, so exec.SortBatches only ever compares vectors.
func (ex *executor) runSort(v *SortPlan, child *exec.DataFrame) (*exec.DataFrame, error) {
	in := child.Schema()
	items := columnItems(in.Names())
	fields := append([]exec.Field{}, in.Fields...)
	keys := make([]exec.SortKey, len(v.Keys))
	for i, k := range v.Keys {
		keys[i] = exec.SortKey{Col: -1, Desc: k.Desc}
		if id, ok := k.Expr.(*Ident); ok {
			keys[i].Col = in.Index(id.Name)
		}
		if keys[i].Col < 0 {
			keys[i].Col = len(items)
			items = append(items, SelectItem{Expr: k.Expr})
			fields = append(fields, exec.Field{Name: exprString(k.Expr)})
		}
	}
	batches := child.Batches()
	keyed := in
	if len(items) > in.Len() {
		keyed = exec.NewSchema(fields...)
		p, err := newProjection(items, in, keyed)
		if err != nil {
			return nil, err
		}
		batches = make([]*exec.ColumnBatch, len(batches))
		for i, b := range child.Batches() {
			if batches[i], err = p.apply(b); err != nil {
				return nil, err
			}
		}
	}
	sorted := exec.SortBatches(keyed, batches, keys)
	if keyed != in {
		cols := make([]exec.Vector, in.Len())
		for i := range cols {
			cols[i] = *sorted.Vec(i)
		}
		sorted = sorted.Derive(in, cols)
	}
	out := ex.newFrame(in)
	if err := out.Append(sorted); err != nil {
		return nil, err
	}
	return out, nil
}

func scanIndexQuery(v *ScanPlan) index.Query {
	q := index.Query{Window: geom.WorldMBR}
	if v.Window != nil {
		q.Window = *v.Window
	}
	if v.TMin != nil || v.TMax != nil {
		q.HasTime = true
		q.TMin, q.TMax = timeBounds(v.TMin, v.TMax)
	}
	return q
}

// runScan lowers a ScanPlan to one of three sources — the columnar
// range scan, and the two row sources (attribute-index point lookup,
// k-NN) wrapped into a batch — and passes every batch through the same
// three steps: exact-geometry refinement plus residual predicates, the
// pushed LIMIT, and the pushed projection. Batches are retained, and
// charged to the query's memory budget, as they arrive, so an
// oversized result set kills the query with exec.ErrMemoryBudget
// mid-scan instead of OOMing the process.
//
// With agg non-nil no frame is built: agg folds each batch (over the
// table's schema) and hands it back to the scan to be refilled.
func (ex *executor) runScan(v *ScanPlan, agg *exec.Aggregator) (*exec.DataFrame, error) {
	t := v.Table
	full, schema := t.Schema(), v.Schema()
	var where filter
	if gi := t.GeomIndex(); v.Window != nil && gi >= 0 {
		// The index scan filters on the record's MBR; the window
		// predicate is on the geometry itself.
		w := *v.Window
		where.preds = append(where.preds, predicate{fn: func(r *env) (any, error) {
			g, ok := r.col(gi).(geom.Geometry)
			return ok && geom.IntersectsMBR(g, w), nil
		}})
	}
	if ti := t.TimeIndex(); v.FIDEq != nil && ti >= 0 && (v.TMin != nil || v.TMax != nil) {
		// A point lookup bypasses the index scan that applies the bounds.
		lo, hi := timeBounds(v.TMin, v.TMax)
		where.preds = append(where.preds, predicate{fn: func(r *env) (any, error) {
			ts, ok := r.col(ti).(int64)
			return ok && ts >= lo && ts <= hi, nil
		}})
	}
	for _, e := range v.Residual {
		fn, err := bind(e, full)
		if err != nil {
			return nil, err
		}
		where.preds = append(where.preds, predicate{fn, e})
	}
	// Push the projection into the scan so untouched columns are never
	// decoded (or decompressed). Residual predicates evaluate against
	// the full schema, so every column they reference is decoded too.
	var keep []int // positions of v.Cols, which pruneColumns lists in table order
	var needed []bool
	if v.Cols != nil {
		needed = make([]bool, full.Len())
		for _, c := range v.Cols {
			j := full.Index(c)
			if len(keep) > 0 && j <= keep[len(keep)-1] {
				return nil, fmt.Errorf("sql: scan projection %v is not in table order", v.Cols)
			}
			keep = append(keep, j)
			needed[j] = true
		}
		if len(v.Residual) > 0 {
			read := map[string]bool{}
			for _, e := range v.Residual {
				collectIdents(e, read)
			}
			for i, f := range full.Fields {
				needed[i] = needed[i] || read[f.Name]
			}
		}
	}

	var out *exec.DataFrame
	if agg == nil {
		out = ex.newFrame(schema)
	}
	remaining := v.Limit
	var emitErr error
	emit := func(scanned *exec.ColumnBatch) bool {
		b, err := where.apply(scanned)
		if emitErr = err; err != nil {
			return false
		}
		// A pushed-down LIMIT stops the scan (cancelling region
		// workers) once enough surviving rows are in hand.
		if v.Limit > 0 {
			b = b.Head(remaining)
			remaining -= b.Len()
		}
		if agg != nil {
			agg.Add(b)
			scanned.Recycle()
		} else {
			if keep != nil {
				// The batch is this scan's alone until a frame holds it.
				b.Narrow(schema, keep)
			}
			if emitErr = out.Append(b); emitErr != nil {
				return false
			}
		}
		return v.Limit <= 0 || remaining > 0
	}

	var err error
	switch {
	case v.FIDEq != nil:
		var row exec.Row
		if row, err = t.GetCtx(ex.ctx, v.FIDEq); err == nil {
			emit(exec.BatchOf(full, []exec.Row{row}))
		} else if errors.Is(err, kv.ErrNotFound) {
			err = nil
		}
	case v.KNN != nil:
		opts := core.KNNOptions{Needed: needed}
		if v.Window != nil {
			opts.Root = *v.Window
		}
		if v.TMin != nil || v.TMax != nil {
			opts.HasTime = true
			opts.TMin, opts.TMax = timeBounds(v.TMin, v.TMax)
		}
		var neighbors []core.Neighbor
		if neighbors, err = ex.session.engine.KNN(ex.ctx, t.Desc.User, t.Desc.Name, v.KNN.Point, v.KNN.K, opts); err == nil {
			rows := make([]exec.Row, len(neighbors))
			for i, nb := range neighbors {
				rows[i] = nb.Row
			}
			emit(exec.BatchOf(full, rows))
		}
	default:
		err = t.ScanBatches(ex.ctx, scanIndexQuery(v), needed, emit)
	}
	if emitErr != nil {
		return nil, emitErr
	}
	if err != nil {
		return nil, exec.MapCtxErr(err)
	}
	return out, nil
}

// timeBounds closes a one-sided interval with the end of int64; the
// access-path planner cuts it to the table's recorded time span.
func timeBounds(tmin, tmax *int64) (int64, int64) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	if tmin != nil {
		lo = *tmin
	}
	if tmax != nil {
		hi = *tmax
	}
	return lo, hi
}

// runAnalysis executes the 1-N and N-M operators. They take and return
// whole entities, so each live row is boxed for them and their output
// re-enters the engine as a row source.
func (ex *executor) runAnalysis(call *FuncCall, child *exec.DataFrame, outSchema *exec.Schema) (*exec.DataFrame, error) {
	argF := func(i int, def float64) (float64, error) {
		if len(call.Args) <= i {
			return def, nil
		}
		v, err := evalConst(call.Args[i])
		if err != nil {
			return 0, err
		}
		return toFloat(v)
	}
	flatMap := func(fn func(exec.Row) ([]exec.Row, error)) (*exec.DataFrame, error) {
		var out []exec.Row
		for _, b := range child.Batches() {
			for i, n := 0, b.Len(); i < n; i++ {
				rows, err := fn(b.RowAt(i))
				if err != nil {
					return nil, err
				}
				out = append(out, rows...)
			}
		}
		return ex.fromRows(outSchema, out)
	}
	switch call.Name {
	case "st_trajnoisefilter":
		maxSpeed, err := argF(1, 50)
		if err != nil {
			return nil, err
		}
		return flatMap(func(r exec.Row) ([]exec.Row, error) {
			traj, err := table.TrajectoryFromRow(r)
			if err != nil {
				return nil, err
			}
			traj.Points = analysis.NoiseFilter(traj.Points, analysis.NoiseFilterOptions{MaxSpeedMPS: maxSpeed})
			if len(traj.Points) < 2 {
				return nil, nil
			}
			row, err := traj.Row()
			if err != nil {
				return nil, err
			}
			return []exec.Row{row}, nil
		})
	case "st_trajsegmentation":
		gapMin, err := argF(1, 10)
		if err != nil {
			return nil, err
		}
		return flatMap(func(r exec.Row) ([]exec.Row, error) {
			traj, err := table.TrajectoryFromRow(r)
			if err != nil {
				return nil, err
			}
			segs := analysis.Segmentation(traj.Points, analysis.SegmentationOptions{
				MaxGapMS: int64(gapMin * 60 * 1000),
			})
			var out []exec.Row
			for i, seg := range segs {
				sub := &table.Trajectory{ID: fmt.Sprintf("%s#%d", traj.ID, i), Points: seg}
				row, err := sub.Row()
				if err != nil {
					return nil, err
				}
				out = append(out, row)
			}
			return out, nil
		})
	case "st_trajstaypoint":
		distM, err := argF(1, 200)
		if err != nil {
			return nil, err
		}
		durMin, err := argF(2, 20)
		if err != nil {
			return nil, err
		}
		return flatMap(func(r exec.Row) ([]exec.Row, error) {
			traj, err := table.TrajectoryFromRow(r)
			if err != nil {
				return nil, err
			}
			sps := analysis.StayPoints(traj.Points, analysis.StayPointOptions{
				MaxDistM: distM, MinDurationMS: int64(durMin * 60 * 1000),
			})
			var out []exec.Row
			for _, sp := range sps {
				out = append(out, exec.Row{traj.ID, sp.Center, sp.ArriveMS, sp.DepartMS, int64(sp.PointCount)})
			}
			return out, nil
		})
	case "st_dbscan":
		if len(call.Args) != 3 {
			return nil, fmt.Errorf("sql: st_DBSCAN(geom, minPts, radius)")
		}
		id, ok := call.Args[0].(*Ident)
		if !ok {
			return nil, fmt.Errorf("sql: st_DBSCAN first argument must be a geometry column")
		}
		gi := child.Schema().Index(id.Name)
		if gi < 0 {
			return nil, fmt.Errorf("sql: unknown column %q", id.Name)
		}
		minPtsF, err := argF(1, 5)
		if err != nil {
			return nil, err
		}
		radius, err := argF(2, 0.01)
		if err != nil {
			return nil, err
		}
		var pts []geom.Point
		for _, b := range child.Batches() {
			for i, n := 0, b.Len(); i < n; i++ {
				if g, ok := b.Vec(gi).Value(b.Live(i)).(geom.Geometry); ok {
					pts = append(pts, g.MBR().Center())
				}
			}
		}
		labels := analysis.DBSCAN(pts, int(minPtsF), radius)
		out := make([]exec.Row, len(pts))
		for i := range pts {
			out[i] = exec.Row{int64(labels[i]), pts[i]}
		}
		return ex.fromRows(outSchema, out)
	default:
		return nil, fmt.Errorf("sql: unknown analysis function %q", call.Name)
	}
}

// --- LOAD ---

func (s *Session) execLoad(ctx context.Context, st *LoadStmt) (*Result, error) {
	switch st.SrcKind {
	case "csv":
		return s.loadCSV(st)
	case "geojson":
		return s.loadGeoJSON(st)
	case "table", "hive":
		// Hive is simulated by loading from another JUST table.
		return s.loadTable(ctx, st)
	default:
		return nil, fmt.Errorf("sql: unsupported LOAD source %q", st.SrcKind)
	}
}

func (s *Session) loadTable(ctx context.Context, st *LoadStmt) (*Result, error) {
	src, err := s.engine.OpenTable(s.user, strings.TrimPrefix(st.Src, "default."))
	if err != nil {
		return nil, err
	}
	dst, err := s.engine.OpenTable(s.user, st.Dst)
	if err != nil {
		return nil, err
	}
	cfg, err := compileLoadConfig(st, src.Schema())
	if err != nil {
		return nil, err
	}
	var rows []exec.Row
	var ferr error
	err = src.FullScan(ctx, func(r exec.Row) bool {
		if cfg.limit > 0 && len(rows) >= cfg.limit {
			return false
		}
		row, err := cfg.apply(dst.Desc.Columns, r)
		if err != nil {
			ferr = err
			return false
		}
		if row != nil {
			rows = append(rows, row)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if ferr != nil {
		return nil, ferr
	}
	if err := s.engine.BulkInsertContext(ctx, dst.Desc.User, dst.Desc.Name, rows); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("loaded %d rows into %s", len(rows), st.Dst)}, nil
}

// loadConfig is a LOAD statement's CONFIG mapping, FILTER predicate and
// row limit, bound to the source schema.
type loadConfig struct {
	src     *exec.Schema
	mapping map[string]evalFn // destination column → expression over the source
	filter  evalFn            // nil = keep every row
	limit   int
}

// compileLoadConfig parses and binds the CONFIG expressions and FILTER
// clause.
func compileLoadConfig(st *LoadStmt, srcSchema *exec.Schema) (*loadConfig, error) {
	cfg := &loadConfig{src: srcSchema, mapping: map[string]evalFn{}}
	for dstCol, exprSrc := range st.Config {
		e, err := ParseExpr(exprSrc)
		if err == nil {
			cfg.mapping[dstCol], err = bind(e, srcSchema)
		}
		if err != nil {
			return nil, fmt.Errorf("sql: CONFIG %q: %w", dstCol, err)
		}
	}
	if st.Filter != "" {
		e, n, err := ParseFilter(st.Filter)
		if err != nil {
			return nil, err
		}
		if cfg.filter, err = bind(e, srcSchema); err != nil {
			return nil, err
		}
		cfg.limit = n
	}
	return cfg, nil
}

// apply maps one source row onto the destination columns; it returns a
// nil row when the FILTER rejects the source row.
func (cfg *loadConfig) apply(cols []table.Column, src exec.Row) (exec.Row, error) {
	r := env{row: src}
	if cfg.filter != nil {
		keep, err := cfg.filter(&r)
		if err != nil {
			return nil, err
		}
		if b, ok := keep.(bool); !ok || !b {
			return nil, nil
		}
	}
	row := make(exec.Row, len(cols))
	for i, col := range cols {
		var v any
		if fn, ok := cfg.mapping[col.Name]; ok {
			var err error
			if v, err = fn(&r); err != nil {
				return nil, err
			}
		} else if j := cfg.src.Index(col.Name); j >= 0 {
			v = src[j] // default: the same-named source column, else NULL
		}
		cv, err := coerceValue(col, v)
		if err != nil {
			return nil, err
		}
		row[i] = cv
	}
	return row, nil
}

// ParseExpr parses a standalone JustQL expression (used by LOAD CONFIG).
func ParseExpr(src string) (Expr, error) {
	l, err := newLexer(src)
	if err != nil {
		return nil, err
	}
	p := &parser{l: l}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if t := p.l.peek(); t.kind != tokEOF {
		return nil, &SyntaxError{t.pos, fmt.Sprintf("trailing input %q", t.text)}
	}
	return e, nil
}

// ParseFilter parses a LOAD FILTER string: an expression with an
// optional trailing `limit N`.
func ParseFilter(src string) (Expr, int, error) {
	l, err := newLexer(src)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{l: l}
	e, err := p.parseExpr()
	if err != nil {
		return nil, 0, err
	}
	limit := 0
	if p.l.matchKeyword("limit") {
		t := p.l.peek()
		if t.kind != tokNumber {
			return nil, 0, &SyntaxError{t.pos, "limit expects a number"}
		}
		p.l.next()
		fmt.Sscanf(t.text, "%d", &limit)
	}
	if t := p.l.peek(); t.kind != tokEOF {
		return nil, 0, &SyntaxError{t.pos, fmt.Sprintf("trailing input %q", t.text)}
	}
	return e, limit, nil
}
