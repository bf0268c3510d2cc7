// Package core is the JUST engine: it wires the storage cluster, the
// catalog, the index strategies and the execution context into the data
// engine the paper describes — definition, manipulation and query
// operations over spatio-temporal tables (Sections III–V).
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/jobs"
	"just/internal/kv"
	"just/internal/table"
)

// Config tunes an Engine.
type Config struct {
	// Dir is the storage root; required.
	Dir string
	// MemoryBudget caps DataFrame memory (0 = unlimited).
	MemoryBudget int64
	// Shards is the per-index shard count (0 = 4).
	Shards int
	// Period is the default time-period length for temporal indexes
	// (0 = 24h, the paper's Table III setting).
	Period time.Duration
	// ViewTTL evicts idle views (0 = never).
	ViewTTL time.Duration
	// Cluster overrides the storage cluster options.
	Cluster kv.ClusterOptions
	// Router, when set, routes storage to networked region servers over
	// rpc instead of opening the in-process cluster; the catalog then
	// lives on the region servers too, and Dir holds nothing. Cluster
	// options are ignored in router mode.
	Router *kv.RouterOptions
	// DisableFieldCompression turns the paper's compression mechanism
	// off globally (the JUSTnc variant in the evaluation).
	DisableFieldCompression bool
	// Jobs tunes the maintenance scheduler every background task
	// (flush, compaction, scrub, stats, rebalance) runs through: the
	// compaction cap and the disk-pressure watchdog. Zero values take
	// the scheduler defaults; Jobs.DiskPath defaults to Dir so the
	// watchdog measures the volume the engine actually writes to.
	Jobs jobs.Options
}

// Engine is the embedded JUST engine.
type Engine struct {
	cfg     Config
	cluster kv.Store
	sched   *jobs.Scheduler
	catalog *table.Catalog
	views   *table.Views
	ctx     *exec.Context

	statsRefreshes atomic.Int64 // completed RefreshStats runs
}

// Open creates or reopens an engine rooted at cfg.Dir.
func Open(cfg Config) (*Engine, error) {
	if cfg.Dir == "" {
		return nil, errors.New("core: Config.Dir is required")
	}
	// A catalog file beside the store is an older engine's: its tables
	// are not in the store, so the directory is refused, not opened empty.
	old := filepath.Join(cfg.Dir, "catalog.json")
	if _, err := os.Stat(old); err == nil {
		return nil, fmt.Errorf("core: %s is a catalog file of an older engine; this engine keeps its catalog in the store and cannot read it", old)
	}
	// One maintenance scheduler per engine: the storage layer (cluster
	// or router) runs its maintenance through it, the engine adds the
	// stats refresh, and /api/v1/metrics reports its counters.
	jopts := cfg.Jobs
	if jopts.DiskPath == "" {
		jopts.DiskPath = cfg.Dir
	}
	sched := jobs.New(jopts)
	var cluster kv.Store
	var err error
	if cfg.Router != nil {
		ropts := *cfg.Router
		ropts.Jobs = sched
		cluster, err = kv.OpenRouter(ropts)
	} else {
		copts := cfg.Cluster
		copts.Options.Jobs = sched
		cluster, err = kv.OpenCluster(filepath.Join(cfg.Dir, "data"), copts)
	}
	if err != nil {
		sched.Close()
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		cluster: cluster,
		sched:   sched,
		catalog: table.NewCatalog(cluster, table.IndexConfig{Shards: cfg.Shards, Period: cfg.Period}),
		views:   table.NewViews(cfg.ViewTTL),
		ctx:     exec.NewContext(cfg.MemoryBudget),
	}
	// Compactions rewrite the physical layout planner statistics
	// describe, so a completed compaction kicks one coalesced stats
	// pass. Only tables that have been ANALYZEd refresh — a table nobody
	// asked statistics for stays heuristically planned.
	sched.AfterCompact(e.refreshAnalyzedTables)
	return e, nil
}

// Close shuts the engine down: storage first (regions drain their final
// flushes through the scheduler), then the scheduler itself.
func (e *Engine) Close() error {
	err := e.cluster.Close()
	e.sched.Close()
	return err
}

// Jobs exposes the engine's maintenance scheduler (metrics, tests).
func (e *Engine) Jobs() *jobs.Scheduler { return e.sched }

// refreshAnalyzedTables re-collects statistics for every open table
// that already has some (the stats-after-compaction edge). Errors on
// one table don't stop the others; the first is returned so the
// scheduler's stats counters reflect the failure.
func (e *Engine) refreshAnalyzedTables(ctx context.Context) error {
	var first error
	for _, t := range e.catalog.Tables() {
		if ctx.Err() != nil {
			return nil // shutdown mid-pass: not a stats failure
		}
		if t.Stats() == nil {
			continue
		}
		if err := e.refreshTableStats(ctx, t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Context returns the shared execution context (the paper's shared Spark
// context, Section VII-A).
func (e *Engine) Context() *exec.Context { return e.ctx }

// Catalog exposes the meta table.
func (e *Engine) Catalog() *table.Catalog { return e.catalog }

// Views exposes the view registry.
func (e *Engine) Views() *table.Views { return e.views }

// Store exposes the storage fabric (for metrics and benchmarks).
func (e *Engine) Store() kv.Store { return e.cluster }

// Cluster exposes the in-process cluster behind the storage fabric, or
// nil when the engine routes to networked region servers (router mode).
// Callers needing cluster-only surfaces (scrub) must handle the nil.
func (e *Engine) Cluster() *kv.Cluster {
	c, _ := e.cluster.(*kv.Cluster)
	return c
}

// Router exposes the networked routing client behind the storage
// fabric, or nil outside router mode.
func (e *Engine) Router() *kv.Router {
	r, _ := e.cluster.(*kv.Router)
	return r
}

// CreateTable registers a common table. When desc.Indexes is empty the
// engine picks the paper's defaults: attr plus Z2/Z2T for point
// geometry columns, XZ2/XZ2T for non-point ones (we treat geometry
// subtype "point" as point-based).
func (e *Engine) CreateTable(desc *table.Desc) error {
	e.inferRoles(desc)
	if len(desc.Indexes) == 0 {
		desc.Indexes = e.defaultIndexes(desc)
	}
	if desc.Kind == "" {
		desc.Kind = table.KindCommon
	}
	return e.create(desc)
}

// CreateTableAs registers a plugin table ("CREATE TABLE t AS trajectory").
func (e *Engine) CreateTableAs(user, name, plugin string) error {
	desc, err := table.NewDescFromPlugin(user, name, plugin)
	if err != nil {
		return err
	}
	return e.create(desc)
}

// create registers desc, with field compression off when the engine
// turns it off.
func (e *Engine) create(desc *table.Desc) error {
	if e.cfg.DisableFieldCompression {
		for i := range desc.Columns {
			desc.Columns[i].Compress = ""
		}
	}
	return e.catalog.Create(desc)
}

// inferRoles fills FidColumn / GeomColumn / TimeColumn from the schema
// when unset: the primary-key column, the first geometry column, the
// first date column.
func (e *Engine) inferRoles(desc *table.Desc) {
	for _, c := range desc.Columns {
		if desc.FidColumn == "" && c.PrimaryKey {
			desc.FidColumn = c.Name
		}
		if desc.GeomColumn == "" && c.Type == exec.TypeGeometry {
			desc.GeomColumn = c.Name
		}
		if desc.TimeColumn == "" && c.Type == exec.TypeTime {
			desc.TimeColumn = c.Name
		}
	}
	if desc.FidColumn == "" && len(desc.Columns) > 0 {
		desc.FidColumn = desc.Columns[0].Name
	}
}

// defaultIndexes picks attr + spatial (+ spatio-temporal when the table
// has a time column) strategies.
func (e *Engine) defaultIndexes(desc *table.Desc) []table.IndexDesc {
	out := []table.IndexDesc{{Strategy: "attr", ID: 0}}
	if desc.GeomColumn == "" {
		return out
	}
	c, _ := desc.Column(desc.GeomColumn)
	point := c.Subtype == "" || c.Subtype == "point"
	out = append(out, table.IndexDesc{Strategy: index.DefaultFor(point, false, index.Config{}).Name(), ID: 1})
	if desc.TimeColumn != "" {
		out = append(out, table.IndexDesc{Strategy: index.DefaultFor(point, true, index.Config{}).Name(), ID: 2})
	}
	return out
}

// OpenTable returns the runtime for a registered table, cached.
func (e *Engine) OpenTable(user, name string) (*table.Table, error) {
	return e.catalog.Open(user, name)
}

// DropTable removes a table: its rows, meta rows and descriptor. ctx
// bounds the purge (a keys-only scan plus one batched delete).
func (e *Engine) DropTable(ctx context.Context, user, name string) error {
	return e.catalog.Drop(ctx, user, name)
}

// Insert writes rows into a table via the batched group-commit write
// path (one WriteBatch, one WAL sync per touched region), which also
// carries the table's time span.
func (e *Engine) Insert(user, name string, rows []exec.Row) error {
	return e.InsertContext(context.Background(), user, name, rows)
}

// InsertContext is Insert bounded by ctx: on a networked store the
// remaining budget propagates to the region servers with each request.
func (e *Engine) InsertContext(ctx context.Context, user, name string, rows []exec.Row) error {
	t, err := e.OpenTable(user, name)
	if err != nil {
		return err
	}
	return t.InsertBatchCtx(ctx, rows)
}

// bulkBatchRows is BulkInsert's group-commit granularity: large enough
// to amortize locks and WAL syncs, small enough to bound the memory
// held in encoded-but-unapplied form.
const bulkBatchRows = 4096

// BulkInsert ingests rows through the batched write path (the paper's
// Spark-driven batch load in Fig. 2): each slice of bulkBatchRows rows
// is encoded in parallel across the worker pool and group-committed as
// one WriteBatch, and the final Flush drains the background flushers.
func (e *Engine) BulkInsert(user, name string, rows []exec.Row) error {
	return e.BulkInsertContext(context.Background(), user, name, rows)
}

// BulkInsertContext is BulkInsert bounded by ctx, checked at each
// group-commit boundary and propagated into every batch.
func (e *Engine) BulkInsertContext(ctx context.Context, user, name string, rows []exec.Row) error {
	t, err := e.OpenTable(user, name)
	if err != nil {
		return err
	}
	for start := 0; start < len(rows); start += bulkBatchRows {
		if err := t.InsertBatchCtx(ctx, rows[start:min(start+bulkBatchRows, len(rows))]); err != nil {
			return err
		}
	}
	return e.cluster.Flush()
}

// StreamInsert consumes rows from ch until it closes, writing them in
// batches — the streaming-source ingestion the paper lists as future
// work (Section IX), made trivial by update-enabled keys: no index ever
// needs rebuilding.
func (e *Engine) StreamInsert(user, name string, ch <-chan exec.Row, batchSize int) error {
	if batchSize <= 0 {
		batchSize = 1024
	}
	batch := make([]exec.Row, 0, batchSize)
	for row := range ch {
		if batch = append(batch, row); len(batch) == batchSize {
			if err := e.Insert(user, name, batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := e.Insert(user, name, batch); err != nil {
			return err
		}
	}
	return e.cluster.Flush()
}

// SpatialRange answers a spatial range query (Section V-C): all records
// whose geometry intersects the window. The result is a DataFrame so
// further Spark-SQL-style operations compose (Fig. 2). ctx cancels the
// scan and carries the query's lifecycle (deadline, memory budget).
func (e *Engine) SpatialRange(ctx context.Context, user, name string, window geom.MBR) (*exec.DataFrame, error) {
	return e.rangeQuery(ctx, user, name, index.Query{Window: window})
}

// STRange answers a spatio-temporal range query: records intersecting
// the window generated during [tmin, tmax] (Unix ms, inclusive).
func (e *Engine) STRange(ctx context.Context, user, name string, window geom.MBR, tmin, tmax int64) (*exec.DataFrame, error) {
	return e.rangeQuery(ctx, user, name, index.Query{
		Window: window, HasTime: true, TMin: tmin, TMax: tmax,
	})
}

func (e *Engine) rangeQuery(ctx context.Context, user, name string, q index.Query) (*exec.DataFrame, error) {
	t, err := e.OpenTable(user, name)
	if err != nil {
		return nil, err
	}
	ectx := e.ctx.Bind(ctx)
	var rows []exec.Row
	var reserved int64
	gi := t.GeomIndex()
	var budgetErr error
	err = t.ScanQuery(ctx, q, func(row exec.Row) bool {
		// Exact geometry refinement on top of the MBR-level post-filter.
		if gi >= 0 {
			if g, ok := row[gi].(geom.Geometry); ok && !geom.IntersectsMBR(g, q.Window) {
				return true
			}
		}
		// Accumulated rows are charged to the query budget before the
		// frame exists, so a result set that cannot fit the budget stops
		// the scan instead of OOMing the process.
		n := exec.RowSize(row)
		if err := ectx.Reserve(n); err != nil {
			budgetErr = err
			return false
		}
		reserved += n
		rows = append(rows, row)
		return true
	})
	ectx.Release(reserved)
	if budgetErr != nil {
		return nil, budgetErr
	}
	if err != nil {
		return nil, err
	}
	return exec.NewDataFrame(ectx, t.Schema(), rows)
}

// Scan streams raw matching rows without materializing a frame; emit
// returning false stops early; canceling ctx aborts the scan with a
// typed lifecycle error.
func (e *Engine) Scan(ctx context.Context, user, name string, q index.Query, emit func(exec.Row) bool) error {
	t, err := e.OpenTable(user, name)
	if err != nil {
		return err
	}
	return t.ScanQuery(ctx, q, emit)
}

// ScanProjected is Scan with projection pushdown: only the named
// columns are decoded (plus the table's geometry/time columns, which
// the window post-filter always reads); every other column stays nil in
// the emitted rows and skips decompression entirely. cols == nil means
// all columns; an unknown name degrades to a full decode rather than
// failing.
func (e *Engine) ScanProjected(ctx context.Context, user, name string, q index.Query, cols []string, emit func(exec.Row) bool) error {
	t, err := e.OpenTable(user, name)
	if err != nil {
		return err
	}
	var needed []bool
	if cols != nil {
		schema := t.Schema()
		needed = make([]bool, schema.Len())
		for _, c := range cols {
			i := schema.Index(c)
			if i < 0 {
				needed = nil
				break
			}
			needed[i] = true
		}
	}
	return t.ScanProjected(ctx, q, needed, emit)
}

// RefreshStats recollects planner statistics for a table (ANALYZE):
// per-index entry counts and key-distribution samples are rebuilt from
// a keys-only scan, installed on the table runtime (scans planned from
// that point on are cost-based) and persisted in the table's statistics
// row so they survive restarts. Statistics are advisory: until
// refreshed they describe the data as of the last collection, and a
// table without any is planned heuristically.
func (e *Engine) RefreshStats(ctx context.Context, user, name string) (*table.TableStats, error) {
	t, err := e.OpenTable(user, name)
	if err != nil {
		return nil, err
	}
	// Concurrent refreshes of one table collapse onto a single
	// collection (ANALYZE storms from the admin endpoint dedupe through
	// the scheduler); every caller gets the freshly installed snapshot.
	key := "stats:" + table.QualifiedName(t.Desc.User, t.Desc.Name)
	err = e.sched.DoShared(ctx, jobs.ClassStats, key, func(ctx context.Context) error {
		return e.refreshTableStats(ctx, t)
	})
	if err != nil {
		return nil, err
	}
	return t.Stats(), nil
}

// refreshTableStats is the one collection path: recollect, persist,
// count. Shared by RefreshStats and the stats-after-compaction job.
func (e *Engine) refreshTableStats(ctx context.Context, t *table.Table) error {
	if _, err := t.RefreshStats(ctx); err != nil {
		return err
	}
	e.statsRefreshes.Add(1)
	return nil
}

// StatsRefreshes counts completed RefreshStats runs (for /metrics).
func (e *Engine) StatsRefreshes() int64 { return e.statsRefreshes.Load() }

// Flush persists all buffered writes.
func (e *Engine) Flush() error { return e.cluster.Flush() }

// DiskSize reports total on-disk bytes (storage cost in Fig. 10).
func (e *Engine) DiskSize() int64 { return e.cluster.DiskSize() }

// String describes the engine briefly.
func (e *Engine) String() string {
	return fmt.Sprintf("just.Engine(dir=%s, regions=%d)", e.cfg.Dir, e.cluster.Regions())
}
