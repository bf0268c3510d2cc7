package table

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/kv"
)

// newOrderTestTable builds a small order table (points + time) with an
// attribute and a z2t index, n rows seeded from rng. flushEvery > 0
// flushes mid-load so rows spread across SSTables and the memtable.
func newOrderTestTable(t *testing.T, rng *rand.Rand, n, flushEvery int) *Table {
	t.Helper()
	cluster, err := kv.OpenCluster(t.TempDir(), kv.ClusterOptions{Options: kv.Options{DisableWAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	cat := NewCatalog(cluster, IndexConfig{})
	d := &Desc{
		Name: "orders", Kind: KindCommon,
		Columns: []Column{
			{Name: "fid", Type: exec.TypeInt, PrimaryKey: true},
			{Name: "time", Type: exec.TypeTime},
			{Name: "geom", Type: exec.TypeGeometry, Subtype: "point"},
			{Name: "rider", Type: exec.TypeString},
			{Name: "fee", Type: exec.TypeFloat},
		},
		Indexes: []IndexDesc{
			{Strategy: "attr", ID: 0},
			{Strategy: "z2t", ID: 1},
		},
		FidColumn: "fid", GeomColumn: "geom", TimeColumn: "time",
	}
	if err := cat.Create(d); err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(d, cluster, IndexConfig{Shards: 2, Period: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	day := int64(24 * 3600 * 1000)
	var rows []exec.Row
	for i := 0; i < n; i++ {
		rows = append(rows, exec.Row{
			int64(i),
			int64(rng.Intn(int(day))),
			geom.Point{Lng: 116.0 + rng.Float64(), Lat: 39.5 + rng.Float64()},
			fmt.Sprintf("rider-%03d", rng.Intn(50)),
			rng.Float64() * 30,
		})
		if flushEvery > 0 && len(rows) == flushEvery {
			if err := insertRows(tbl, rows...); err != nil {
				t.Fatal(err)
			}
			if err := cluster.Flush(); err != nil {
				t.Fatal(err)
			}
			rows = nil
		}
	}
	if err := insertRows(tbl, rows...); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// newTrajTestTable builds a small trajectory table (gzip GPS lists,
// xz2/xz2t indexes) via the plugin.
func newTrajTestTable(t *testing.T, rng *rand.Rand, n int) *Table {
	t.Helper()
	cluster, err := kv.OpenCluster(t.TempDir(), kv.ClusterOptions{Options: kv.Options{DisableWAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	cat := NewCatalog(cluster, IndexConfig{})
	d, err := NewDescFromPlugin("", "traj", "trajectory")
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Create(d); err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(d, cluster, IndexConfig{Shards: 2, Period: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	day := int64(24 * 3600 * 1000)
	var rows []exec.Row
	for i := 0; i < n; i++ {
		lng := 116.0 + rng.Float64()
		lat := 39.5 + rng.Float64()
		t0 := int64(rng.Intn(int(day - 30*3000)))
		pts := make([]geom.TPoint, 30)
		for j := range pts {
			lng += (rng.Float64() - 0.5) * 2e-4
			lat += (rng.Float64() - 0.5) * 2e-4
			pts[j] = geom.TPoint{Point: geom.Point{Lng: lng, Lat: lat}, T: t0 + int64(j)*3000}
		}
		traj := &Trajectory{ID: fmt.Sprintf("t-%04d", i), Points: pts}
		row, err := traj.Row()
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if err := insertRows(tbl, rows...); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Flush(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// canonicalRows renders rows to sorted strings so two scans compare as
// sets. Geometry columns render as WKT — pointer-typed geometries
// would otherwise print addresses, never contents.
func canonicalRows(rows []exec.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var sb []byte
		for _, v := range r {
			if g, ok := v.(geom.Geometry); ok {
				sb = fmt.Appendf(sb, "|%s", g.WKT())
			} else {
				sb = fmt.Appendf(sb, "|%v", v)
			}
		}
		out[i] = string(sb)
	}
	sort.Strings(out)
	return out
}

func collectBatched(t *testing.T, tbl *Table, q index.Query, needed []bool) []exec.Row {
	t.Helper()
	var rows []exec.Row
	if err := tbl.ScanProjected(context.Background(), q, needed, func(r exec.Row) bool {
		rows = append(rows, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestScanBatchesMatchesOracleOrders: the index-planned columnar scan
// must return exactly the rows the brute-force oracle finds (every row
// of the table, window predicate on the decoded row), across randomized
// spatio-temporal windows and projections, on a point-record table
// spanning SSTables and the memtable.
func TestScanBatchesMatchesOracleOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := newOrderTestTable(t, rng, 3000, 1000)
	day := int64(24 * 3600 * 1000)
	projections := [][]bool{
		nil,
		{true, true, true, true, true},
		{true, false, false, false, false},
		{true, true, false, false, true},
	}
	for trial := 0; trial < 8; trial++ {
		lng := 116.0 + rng.Float64()*0.8
		lat := 39.5 + rng.Float64()*0.8
		q := index.Query{
			Window: geom.NewMBR(lng, lat, lng+0.3, lat+0.3),
		}
		if trial%2 == 0 {
			q.HasTime = true
			q.TMin = int64(rng.Intn(12)) * 3600 * 1000
			q.TMax = q.TMin + 4*3600*1000
		}
		if trial == 7 { // full coverage
			q = index.Query{Window: geom.WorldMBR, HasTime: true, TMin: 0, TMax: day}
		}
		needed := projections[trial%len(projections)]
		want := canonicalRows(scanOracle(t, tbl, q, needed))
		got := canonicalRows(collectBatched(t, tbl, q, needed))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: columnar scan diverges from the brute-force oracle: %d vs %d rows", trial, len(got), len(want))
		}
		if trial == 0 && len(want) == 0 {
			t.Fatal("degenerate trial: query matched nothing")
		}
	}
}

// TestScanBatchesMatchesOracleTraj: same equivalence on the trajectory
// plugin table — gzip-compressed GPS lists, xz2/xz2t indexes, NULLable
// projected columns.
func TestScanBatchesMatchesOracleTraj(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tbl := newTrajTestTable(t, rng, 200)
	projections := [][]bool{
		nil,
		{true, false, false, false, false, false, false}, // tid only
		{true, true, false, false, true, true, false},    // no gps list
		{true, true, true, true, true, true, true},       // everything
	}
	for trial := 0; trial < 6; trial++ {
		lng := 116.0 + rng.Float64()*0.7
		lat := 39.5 + rng.Float64()*0.7
		q := index.Query{Window: geom.NewMBR(lng, lat, lng+0.4, lat+0.4)}
		if trial%2 == 1 {
			q.HasTime = true
			q.TMin = int64(rng.Intn(10)) * 3600 * 1000
			q.TMax = q.TMin + 6*3600*1000
		}
		needed := projections[trial%len(projections)]
		want := canonicalRows(scanOracle(t, tbl, q, needed))
		got := canonicalRows(collectBatched(t, tbl, q, needed))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: columnar scan diverges from the brute-force oracle: %d vs %d rows", trial, len(got), len(want))
		}
	}
}

// TestScanBatchesMemoryBudget: columnar batch allocations are charged
// to the per-query memory budget, so an oversized scan still dies with
// ErrMemoryBudget instead of materializing unbounded batches.
func TestScanBatchesMemoryBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tbl := newOrderTestTable(t, rng, 2000, 0)
	ctx := exec.WithQuery(context.Background(), exec.NewQuery(256))
	err := tbl.ScanBatches(ctx, index.Query{Window: geom.WorldMBR}, nil, func(b *exec.ColumnBatch) bool {
		return true
	})
	if !errors.Is(err, exec.ErrMemoryBudget) {
		t.Fatalf("tiny-budget columnar scan returned %v, want ErrMemoryBudget", err)
	}
}

// TestStatsFlipPlanChoice: the access-path choice must follow the
// statistics. Stale (empty-table) statistics cost the full attribute
// scan cheapest; refreshing after the load flips the same query to the
// selective z2t index; and a table without statistics falls back to the
// fixed heuristic.
func TestStatsFlipPlanChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tbl := newOrderTestTable(t, rng, 0, 0)
	ctx := context.Background()

	// Stale snapshot: collected while the table is empty.
	stale, err := tbl.RefreshStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stale.RowCount != 0 {
		t.Fatalf("empty-table stats claim %d rows", stale.RowCount)
	}

	// Load after collection: the installed stats are now stale.
	day := int64(24 * 3600 * 1000)
	for i := 0; i < 3000; i++ {
		row := exec.Row{
			int64(i),
			int64(rng.Intn(int(day))),
			geom.Point{Lng: 116.0 + rng.Float64(), Lat: 39.5 + rng.Float64()},
			fmt.Sprintf("rider-%03d", rng.Intn(50)),
			rng.Float64() * 30,
		}
		if err := insertRows(tbl, row); err != nil {
			t.Fatal(err)
		}
	}

	q := index.Query{
		Window:  geom.NewMBR(116.4, 39.8, 116.5, 39.9),
		HasTime: true,
		TMin:    10 * 3600 * 1000,
		TMax:    12 * 3600 * 1000,
	}

	// Stale stats see zero keys everywhere: the single-range attribute
	// scan is the cheapest candidate.
	p, err := tbl.PlanAccess(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != "attr" {
		t.Fatalf("stale stats chose %q, want attr full scan", p.Strategy)
	}
	if p.EstKeys < 0 {
		t.Fatal("stats present but plan reports heuristic choice")
	}

	// Fresh stats flip the same query to the selective index.
	if _, err := tbl.RefreshStats(ctx); err != nil {
		t.Fatal(err)
	}
	p, err = tbl.PlanAccess(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != "z2t" {
		t.Fatalf("fresh stats chose %q, want z2t", p.Strategy)
	}
	if p.EstKeys < 0 {
		t.Fatal("fresh stats plan reports heuristic choice")
	}

	// Both plans answer identically — plan choice never affects results.
	rowsAttr := canonicalRows(collectBatched(t, tbl, q, nil))
	tbl.SetStats(stale)
	rowsStale := canonicalRows(collectBatched(t, tbl, q, nil))
	if !reflect.DeepEqual(rowsAttr, rowsStale) {
		t.Fatal("plan choice changed query results")
	}

	// No statistics at all: heuristic fallback, marked EstKeys == -1.
	tbl.stats.Store(nil)
	p, err = tbl.PlanAccess(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.EstKeys != -1 {
		t.Fatalf("stats-free plan EstKeys = %f, want -1", p.EstKeys)
	}
	if p.Strategy != "z2t" {
		t.Fatalf("heuristic chose %q, want z2t for a time-bounded query", p.Strategy)
	}
}
