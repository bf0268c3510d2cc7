package sql

import (
	"context"
	"errors"
	"fmt"
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
// workers, operators abort between partitions — surfacing as the typed
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
			v, err := evalExpr(foldExpr(e), nil, nil)
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

// executor runs an optimized plan, tracking intermediate frames so their
// memory returns to the shared context budget. ctx is the query's
// lifecycle (cancellation, deadline); ectx is the engine execution
// context bound to it (and to the per-query memory budget, when the
// context carries one).
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
		return ex.runScan(v)
	case *ViewPlan:
		// Borrowed, never released here: the alias rebinds the cached
		// rows to this query's cancellation and budget (the frame was
		// built under the long-finished creating query's context).
		return v.View.Frame.Bound(ex.ectx), nil
	case *FilterPlan:
		child, err := ex.run(v.Child)
		if err != nil {
			return nil, err
		}
		schema := child.Schema()
		out, err := child.Filter(func(r exec.Row) (bool, error) {
			val, err := evalExpr(v.Cond, schema, r)
			if err != nil {
				return false, err
			}
			b, ok := val.(bool)
			if !ok {
				return false, fmt.Errorf("sql: WHERE clause is not boolean")
			}
			return b, nil
		})
		if err != nil {
			return nil, err
		}
		return ex.track(out), nil
	case *AggregatePlan:
		if df, ok, err := ex.columnarAgg(v); err != nil {
			return nil, err
		} else if ok {
			return df, nil
		}
		child, err := ex.run(v.Child)
		if err != nil {
			return nil, err
		}
		out, err := child.GroupBySized(v.Keys, v.Aggs, aggSizeHint(v.Child))
		if err != nil {
			return nil, err
		}
		return ex.track(out), nil
	case *SortPlan:
		if df, ok, err := ex.columnarSort(v); err != nil {
			return nil, err
		} else if ok {
			return df, nil
		}
		child, err := ex.run(v.Child)
		if err != nil {
			return nil, err
		}
		schema := child.Schema()
		var evalErr error
		out, err := child.SortBy(func(a, b exec.Row) bool {
			for _, k := range v.Keys {
				av, err1 := evalExpr(k.Expr, schema, a)
				bv, err2 := evalExpr(k.Expr, schema, b)
				if err1 != nil || err2 != nil {
					if evalErr == nil {
						evalErr = fmt.Errorf("sql: ORDER BY evaluation failed")
					}
					return false
				}
				c, ok := exec.Compare(av, bv)
				if !ok {
					continue
				}
				if c != 0 {
					if k.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		if err != nil {
			return nil, err
		}
		if evalErr != nil {
			return nil, evalErr
		}
		return ex.track(out), nil
	case *LimitPlan:
		child, err := ex.run(v.Child)
		if err != nil {
			return nil, err
		}
		out, err := child.Limit(v.N)
		if err != nil {
			return nil, err
		}
		return ex.track(out), nil
	case *JoinPlan:
		left, err := ex.run(v.Left)
		if err != nil {
			return nil, err
		}
		right, err := ex.run(v.Right)
		if err != nil {
			return nil, err
		}
		jt := exec.InnerJoin
		if v.LeftOuter {
			jt = exec.LeftJoin
		}
		out, err := left.Join(right, []string{v.LeftCol}, []string{v.RightCol}, jt)
		if err != nil {
			return nil, err
		}
		return ex.track(out), nil
	case *ProjectPlan:
		return ex.runProject(v)
	default:
		return nil, fmt.Errorf("sql: cannot execute %T", p)
	}
}

// aggSizeHint estimates an aggregation input's cardinality from table
// statistics, so the hash-aggregation tables are sized up front instead
// of rehashing as groups accumulate. 0 (no hint) when the aggregate is
// not fed by a scan of a table with collected statistics.
func aggSizeHint(p Plan) int {
	const maxHint = 1 << 20 // cap what a stale RowCount can preallocate
	switch v := p.(type) {
	case *ScanPlan:
		if st := v.Table.Stats(); st != nil {
			n := st.RowCount
			if n > maxHint {
				n = maxHint
			}
			return int(n)
		}
	case *FilterPlan:
		return aggSizeHint(v.Child)
	case *ProjectPlan:
		return aggSizeHint(v.Child)
	case *LimitPlan:
		return aggSizeHint(v.Child)
	}
	return 0
}

// columnarScannable reports whether a scan can feed the vectorized
// operators directly: a plain range scan with no point lookup, no k-NN,
// no residual predicates and no pushed limit. Window and time bounds
// are fine — the batch scan applies them with the same semantics as the
// row path.
func columnarScannable(v *ScanPlan) bool {
	return v.FIDEq == nil && v.KNN == nil && len(v.Residual) == 0 && v.Limit <= 0
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

// collectBatches runs the columnar scan and retains every batch,
// charging each to the query's memory budget. The returned release
// frees the charge; callers defer it past result materialization.
func (ex *executor) collectBatches(t *table.Table, v *ScanPlan, needed []bool) ([]*exec.ColumnBatch, func(), error) {
	var batches []*exec.ColumnBatch
	var reserved int64
	ectx := ex.ectx
	release := func() { ectx.Release(reserved) }
	var budgetErr error
	err := t.ScanBatches(ex.ctx, scanIndexQuery(v), needed, func(b *exec.ColumnBatch) bool {
		n := b.MemSize()
		if err := ectx.Reserve(n); err != nil {
			budgetErr = err
			return false
		}
		reserved += n
		batches = append(batches, b)
		return true
	})
	if budgetErr != nil {
		err = budgetErr
	}
	if err != nil {
		return nil, release, err
	}
	return batches, release, nil
}

// columnarAgg runs aggregate-over-scan on the vectorized path: the scan
// emits column batches and hash aggregation reads the typed vectors
// directly, so rows are never boxed between storage and the hash table.
// ok=false falls back to the row operators.
func (ex *executor) columnarAgg(v *AggregatePlan) (*exec.DataFrame, bool, error) {
	scan, isScan := v.Child.(*ScanPlan)
	if !isScan || !columnarScannable(scan) {
		return nil, false, nil
	}
	t, err := ex.session.engine.OpenTable(scan.Table.Desc.User, scan.Table.Desc.Name)
	if err != nil {
		return nil, false, err
	}
	full := t.Schema()
	needed := make([]bool, full.Len())
	keyIdx := make([]int, len(v.Keys))
	for i, k := range v.Keys {
		j := full.Index(k)
		if j < 0 {
			return nil, false, nil // row path reports the unknown column
		}
		keyIdx[i] = j
		needed[j] = true
	}
	aggIdx := make([]int, len(v.Aggs))
	for i, a := range v.Aggs {
		if a.Col == "*" || a.Col == "" {
			aggIdx[i] = -1
			continue
		}
		j := full.Index(a.Col)
		if j < 0 {
			return nil, false, nil
		}
		aggIdx[i] = j
		needed[j] = true
	}
	batches, release, err := ex.collectBatches(t, scan, needed)
	defer release()
	if err != nil {
		return nil, false, err
	}
	schema, rows, err := exec.AggregateBatches(full, batches, keyIdx, v.Aggs, aggIdx, aggSizeHint(v.Child))
	if err != nil {
		return nil, false, err
	}
	df, err := exec.NewDataFrame(ex.ectx, schema, rows)
	if err != nil {
		return nil, false, err
	}
	return ex.track(df), true, nil
}

// columnarSort runs sort-over-scan on the vectorized path: batches are
// sorted via the key's typed vector and rows materialize only after the
// sort. ok=false falls back when the key is not a bare column of the
// scan, the scan is not batch-eligible, or the key column holds NULLs
// (the row comparator treats NULL as tying with everything, the vector
// sort orders NULLs first — the rare NULL-key sort keeps the historic
// order).
func (ex *executor) columnarSort(v *SortPlan) (*exec.DataFrame, bool, error) {
	if len(v.Keys) != 1 {
		return nil, false, nil
	}
	ident, isIdent := v.Keys[0].Expr.(*Ident)
	if !isIdent {
		return nil, false, nil
	}
	scan, isScan := v.Child.(*ScanPlan)
	if !isScan || !columnarScannable(scan) {
		return nil, false, nil
	}
	outSchema := scan.Schema()
	if outSchema.Index(ident.Name) < 0 {
		return nil, false, nil
	}
	t, err := ex.session.engine.OpenTable(scan.Table.Desc.User, scan.Table.Desc.Name)
	if err != nil {
		return nil, false, err
	}
	full := t.Schema()
	col := full.Index(ident.Name)
	if col < 0 {
		return nil, false, nil
	}
	needed := make([]bool, full.Len())
	needed[col] = true
	var colIdx []int
	if scan.Cols != nil {
		colIdx = make([]int, len(scan.Cols))
		for i, c := range scan.Cols {
			j := full.Index(c)
			if j < 0 {
				return nil, false, nil
			}
			colIdx[i] = j
			needed[j] = true
		}
	} else {
		for i := range needed {
			needed[i] = true
		}
	}
	batches, release, err := ex.collectBatches(t, scan, needed)
	defer release()
	if err != nil {
		return nil, false, err
	}
	for _, b := range batches {
		if b.HasNulls(col) {
			return nil, false, nil
		}
	}
	rows := exec.SortBatches(batches, col, v.Keys[0].Desc)
	if colIdx != nil {
		for i, r := range rows {
			nr := make(exec.Row, len(colIdx))
			for k, j := range colIdx {
				nr[k] = r[j]
			}
			rows[i] = nr
		}
	}
	df, err := exec.NewDataFrame(ex.ectx, outSchema, rows)
	if err != nil {
		return nil, false, err
	}
	return ex.track(df), true, nil
}

func (ex *executor) runScan(v *ScanPlan) (*exec.DataFrame, error) {
	eng := ex.session.engine
	ectx := ex.ectx
	fullSchema := v.Table.Schema()
	var colIdx []int
	outSchema := fullSchema
	if v.Cols != nil {
		colIdx = make([]int, len(v.Cols))
		for i, c := range v.Cols {
			colIdx[i] = fullSchema.Index(c)
		}
		outSchema = v.Schema()
	}
	project := func(row exec.Row) exec.Row {
		if colIdx == nil {
			return row
		}
		nr := make(exec.Row, len(colIdx))
		for i, j := range colIdx {
			nr[i] = row[j]
		}
		return nr
	}
	residualOK := func(row exec.Row) (bool, error) {
		for _, e := range v.Residual {
			val, err := evalExpr(e, fullSchema, row)
			if err != nil {
				return false, err
			}
			b, ok := val.(bool)
			if !ok {
				return false, fmt.Errorf("sql: predicate %s is not boolean", exprString(e))
			}
			if !b {
				return false, nil
			}
		}
		return true, nil
	}

	if v.FIDEq != nil {
		// Attribute-index point lookup.
		t, err := eng.OpenTable(v.Table.Desc.User, v.Table.Desc.Name)
		if err != nil {
			return nil, err
		}
		var rows []exec.Row
		row, err := t.GetCtx(ex.ctx, v.FIDEq)
		if err != nil && !errors.Is(err, kv.ErrNotFound) {
			return nil, exec.MapCtxErr(err)
		}
		if err == nil {
			// Apply remaining pushed predicates to the single row.
			keep := true
			if v.Window != nil {
				gi := t.GeomIndex()
				if gi >= 0 {
					if g, ok := row[gi].(geom.Geometry); !ok || !geom.IntersectsMBR(g, *v.Window) {
						keep = false
					}
				}
			}
			if keep && (v.TMin != nil || v.TMax != nil) && t.TimeIndex() >= 0 {
				lo, hi := timeBounds(v.TMin, v.TMax)
				if ts, ok := row[t.TimeIndex()].(int64); !ok || ts < lo || ts > hi {
					keep = false
				}
			}
			if keep {
				ok, err := residualOK(row)
				if err != nil {
					return nil, err
				}
				keep = ok
			}
			if keep {
				rows = append(rows, project(row))
			}
		}
		df, err := exec.NewDataFrame(ectx, outSchema, rows)
		if err != nil {
			return nil, err
		}
		return ex.track(df), nil
	}

	if v.KNN != nil {
		opts := core.KNNOptions{}
		if v.Window != nil {
			opts.Root = *v.Window
		}
		if v.TMin != nil || v.TMax != nil {
			opts.HasTime = true
			opts.TMin, opts.TMax = timeBounds(v.TMin, v.TMax)
		}
		neighbors, err := eng.KNN(ex.ctx, v.Table.Desc.User, v.Table.Desc.Name, v.KNN.Point, v.KNN.K, opts)
		if err != nil {
			return nil, err
		}
		var rows []exec.Row
		for _, nb := range neighbors {
			ok, err := residualOK(nb.Row)
			if err != nil {
				return nil, err
			}
			if ok {
				rows = append(rows, project(nb.Row))
			}
		}
		df, err := exec.NewDataFrame(ectx, outSchema, rows)
		if err != nil {
			return nil, err
		}
		return ex.track(df), nil
	}

	q := scanIndexQuery(v)
	// Push the projection into the scan so untouched columns are never
	// decoded (or decompressed). Residual predicates evaluate against
	// the full schema, so every column they reference must be decoded
	// too, not just the projected ones.
	var scanCols []string
	if v.Cols != nil {
		set := make(map[string]bool, len(v.Cols))
		for _, c := range v.Cols {
			set[c] = true
		}
		for _, e := range v.Residual {
			collectIdents(e, set)
		}
		for _, f := range fullSchema.Fields {
			if set[f.Name] {
				scanCols = append(scanCols, f.Name)
			}
		}
	}
	gi := v.Table.GeomIndex()
	var rows []exec.Row
	var scanErr error
	// Rows accumulated before the frame exists are charged to the
	// query's memory budget incrementally, so an oversized result set
	// kills the query with exec.ErrMemoryBudget mid-scan instead of
	// OOMing the process at materialization time.
	var reserved int64
	defer func() { ectx.Release(reserved) }()
	err := eng.ScanProjected(ex.ctx, v.Table.Desc.User, v.Table.Desc.Name, q, scanCols, func(row exec.Row) bool {
		// Exact geometry refinement when a window was pushed.
		if v.Window != nil && gi >= 0 {
			if g, ok := row[gi].(geom.Geometry); ok && !geom.IntersectsMBR(g, *v.Window) {
				return true
			}
		}
		ok, err := residualOK(row)
		if err != nil {
			scanErr = err
			return false
		}
		if ok {
			pr := project(row)
			n := exec.RowSize(pr)
			if err := ectx.Reserve(n); err != nil {
				scanErr = err
				return false
			}
			reserved += n
			rows = append(rows, pr)
			// A pushed-down LIMIT stops the scan (cancelling region
			// workers) once enough surviving rows are in hand.
			if v.Limit > 0 && len(rows) >= v.Limit {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	df, err := exec.NewDataFrame(ectx, outSchema, rows)
	if err != nil {
		return nil, err
	}
	return ex.track(df), nil
}

func timeBounds(tmin, tmax *int64) (int64, int64) {
	lo := int64(0)
	hi := int64(1) << 62
	if tmin != nil {
		lo = *tmin
	}
	if tmax != nil {
		hi = *tmax
	}
	return lo, hi
}

func (ex *executor) runProject(v *ProjectPlan) (*exec.DataFrame, error) {
	child, err := ex.run(v.Child)
	if err != nil {
		return nil, err
	}
	// Analysis operator special case.
	if len(v.Items) == 1 && !v.Items[0].Star {
		if call, ok := v.Items[0].Expr.(*FuncCall); ok && analysisFuncs[call.Name] {
			out, err := ex.runAnalysis(call, child, v.Schema())
			if err != nil {
				return nil, err
			}
			return ex.track(out), nil
		}
	}
	// Pure column projection.
	allIdents := true
	var names []string
	for _, it := range v.Items {
		id, ok := it.Expr.(*Ident)
		if !ok || it.Alias != "" || id.Name == "item" {
			allIdents = false
			break
		}
		names = append(names, id.Name)
	}
	if allIdents {
		if sameNames(names, child.Schema().Names()) {
			return child, nil
		}
		out, err := child.Select(names...)
		if err != nil {
			return nil, err
		}
		return ex.track(out), nil
	}
	// General expression projection (1-1 operations via Map).
	schema := child.Schema()
	out, err := child.Map(v.Schema(), func(r exec.Row) (exec.Row, error) {
		nr := make(exec.Row, len(v.Items))
		for i, it := range v.Items {
			val, err := evalExpr(it.Expr, schema, r)
			if err != nil {
				return nil, err
			}
			nr[i] = val
		}
		return nr, nil
	})
	if err != nil {
		return nil, err
	}
	return ex.track(out), nil
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runAnalysis executes the 1-N and N-M operators.
func (ex *executor) runAnalysis(call *FuncCall, child *exec.DataFrame, outSchema *exec.Schema) (*exec.DataFrame, error) {
	argF := func(i int, def float64) (float64, error) {
		if len(call.Args) <= i {
			return def, nil
		}
		v, err := evalExpr(call.Args[i], nil, nil)
		if err != nil {
			return 0, err
		}
		return toFloat(v)
	}
	switch call.Name {
	case "st_trajnoisefilter":
		maxSpeed, err := argF(1, 50)
		if err != nil {
			return nil, err
		}
		return child.FlatMap(outSchema, func(r exec.Row) ([]exec.Row, error) {
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
		return child.FlatMap(outSchema, func(r exec.Row) ([]exec.Row, error) {
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
		return child.FlatMap(outSchema, func(r exec.Row) ([]exec.Row, error) {
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
		rows := child.Collect()
		pts := make([]geom.Point, 0, len(rows))
		for _, r := range rows {
			if g, ok := r[gi].(geom.Geometry); ok {
				pts = append(pts, g.MBR().Center())
			}
		}
		labels := analysis.DBSCAN(pts, int(minPtsF), radius)
		out := make([]exec.Row, len(pts))
		for i := range pts {
			out[i] = exec.Row{int64(labels[i]), pts[i]}
		}
		return exec.NewDataFrame(ex.ectx, outSchema, out)
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
	mapping, filter, limit, err := compileLoadConfig(st, src.Schema())
	if err != nil {
		return nil, err
	}
	var rows []exec.Row
	srcSchema := src.Schema()
	var ferr error
	err = src.FullScan(ctx, func(r exec.Row) bool {
		if limit > 0 && len(rows) >= limit {
			return false
		}
		if filter != nil {
			keep, err := evalExpr(filter, srcSchema, r)
			if err != nil {
				ferr = err
				return false
			}
			if b, ok := keep.(bool); !ok || !b {
				return true
			}
		}
		row, err := applyMapping(mapping, dst.Desc.Columns, srcSchema, r)
		if err != nil {
			ferr = err
			return false
		}
		rows = append(rows, row)
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

// compileLoadConfig parses the CONFIG expressions and FILTER clause.
func compileLoadConfig(st *LoadStmt, srcSchema *exec.Schema) (map[string]Expr, Expr, int, error) {
	mapping := map[string]Expr{}
	for dstCol, exprSrc := range st.Config {
		e, err := ParseExpr(exprSrc)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("sql: CONFIG %q: %w", dstCol, err)
		}
		mapping[dstCol] = e
	}
	var filter Expr
	limit := 0
	if st.Filter != "" {
		e, n, err := ParseFilter(st.Filter)
		if err != nil {
			return nil, nil, 0, err
		}
		filter, limit = e, n
	}
	return mapping, filter, limit, nil
}

func applyMapping(mapping map[string]Expr, cols []table.Column, srcSchema *exec.Schema, src exec.Row) (exec.Row, error) {
	row := make(exec.Row, len(cols))
	for i, col := range cols {
		e, ok := mapping[col.Name]
		if !ok {
			// Default: same-named source column, else null.
			if j := srcSchema.Index(col.Name); j >= 0 {
				cv, err := coerceValue(col, src[j])
				if err != nil {
					return nil, err
				}
				row[i] = cv
			}
			continue
		}
		v, err := evalExpr(e, srcSchema, src)
		if err != nil {
			return nil, err
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
