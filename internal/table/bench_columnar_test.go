package table

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/kv"
)

// runTrajBenchColumnar drives the batch-emitting scan directly: rows
// are counted off the column vectors and never boxed.
func runTrajBenchColumnar(b *testing.B, needed []bool) {
	tbl, err := trajBenchTable()
	if err != nil {
		b.Fatal(err)
	}
	q := benchTrajQuery()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows = 0
		if err := tbl.ScanBatches(context.Background(), q, needed, func(cb *exec.ColumnBatch) bool {
			rows += cb.Len()
			return true
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rows == 0 {
		b.Fatal("query matched nothing")
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkScanPipelineColumnarTrajST: full columnar scan, all columns
// decoded into batches.
func BenchmarkScanPipelineColumnarTrajST(b *testing.B) {
	runTrajBenchColumnar(b, nil)
}

// BenchmarkScanPipelineColumnarTrajSTProjected: columnar scan decoding
// only the tid column for surviving rows.
func BenchmarkScanPipelineColumnarTrajSTProjected(b *testing.B) {
	needed := make([]bool, 7)
	needed[0] = true
	runTrajBenchColumnar(b, needed)
}

// BenchmarkScanPipelineColumnarOrderST: columnar scan over the plain
// point-record table.
func BenchmarkScanPipelineColumnarOrderST(b *testing.B) {
	tbl, err := orderBenchTable()
	if err != nil {
		b.Fatal(err)
	}
	q := index.Query{
		Window:  geom.NewMBR(116.2, 39.7, 116.7, 40.2),
		HasTime: true,
		TMin:    10 * 3600 * 1000,
		TMax:    14 * 3600 * 1000,
	}
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows = 0
		if err := tbl.ScanBatches(context.Background(), q, nil, func(cb *exec.ColumnBatch) bool {
			rows += cb.Len()
			return true
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rows == 0 {
		b.Fatal("query matched nothing")
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

var (
	zoneBenchOnce sync.Once
	zoneBenchTbl  *Table
	zoneBenchErr  error
)

const zoneBenchCount = 60000

// zoneBenchTable is the zone-map pruning fixture: an attribute-only
// order table whose event time grows with the sequential fid, so the
// attribute index's key order correlates with time and SSTable blocks
// carry tight time zones. A narrow time window then proves most blocks
// irrelevant before they are read or decompressed.
func zoneBenchTable() (*Table, error) {
	zoneBenchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "just-bench-zone-")
		if err != nil {
			zoneBenchErr = err
			return
		}
		cluster, err := kv.OpenCluster(dir, benchClusterOptions())
		if err != nil {
			zoneBenchErr = err
			return
		}
		cat := NewCatalog(cluster, IndexConfig{})
		d := &Desc{
			Name: "zorders", Kind: KindCommon,
			Columns: []Column{
				{Name: "fid", Type: exec.TypeInt, PrimaryKey: true},
				{Name: "time", Type: exec.TypeTime},
				{Name: "geom", Type: exec.TypeGeometry, Subtype: "point"},
				{Name: "rider", Type: exec.TypeString},
				{Name: "fee", Type: exec.TypeFloat},
			},
			Indexes:   []IndexDesc{{Strategy: "attr", ID: 0}},
			FidColumn: "fid", GeomColumn: "geom", TimeColumn: "time",
		}
		if err := cat.Create(d); err != nil {
			zoneBenchErr = err
			return
		}
		tbl, err := Open(d, cluster, IndexConfig{Shards: 2, Period: 24 * time.Hour})
		if err != nil {
			zoneBenchErr = err
			return
		}
		rng := rand.New(rand.NewSource(23))
		step := float64(benchDayMS) / zoneBenchCount
		rows := make([]exec.Row, 0, zoneBenchCount)
		for i := 0; i < zoneBenchCount; i++ {
			rows = append(rows, exec.Row{
				int64(i),
				int64(float64(i) * step), // time grows with fid
				geom.Point{Lng: 116.0 + rng.Float64(), Lat: 39.5 + rng.Float64()},
				fmt.Sprintf("rider-%04d", rng.Intn(500)),
				rng.Float64() * 30,
			})
		}
		if err := insertRows(tbl, rows...); err != nil {
			zoneBenchErr = err
			return
		}
		if err := cluster.Flush(); err != nil {
			zoneBenchErr = err
			return
		}
		zoneBenchTbl = tbl
	})
	return zoneBenchTbl, zoneBenchErr
}

// zoneBenchQuery is a 30-minute slice of the day — about 2% of the
// fixture's blocks overlap it.
func zoneBenchQuery() index.Query {
	return index.Query{
		Window:  geom.WorldMBR,
		HasTime: true,
		TMin:    10 * 3600 * 1000,
		TMax:    10*3600*1000 + 30*60*1000,
	}
}

// BenchmarkZoneMapSkip: the selective time-window scan over the
// pruning fixture; block skips are reported per iteration.
func BenchmarkZoneMapSkip(b *testing.B) {
	tbl, err := zoneBenchTable()
	if err != nil {
		b.Fatal(err)
	}
	q := zoneBenchQuery()
	before := tbl.cluster.Metrics().BlocksSkipped
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows = 0
		if err := tbl.ScanBatches(context.Background(), q, nil, func(cb *exec.ColumnBatch) bool {
			rows += cb.Len()
			return true
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rows == 0 {
		b.Fatal("query matched nothing")
	}
	skipped := tbl.cluster.Metrics().BlocksSkipped - before
	if skipped == 0 {
		b.Fatal("zone maps skipped no blocks on the pruning fixture")
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(skipped)/float64(b.N), "blocks-skipped/op")
}

// TestZoneMapPruningFixture is the CI gate for zone-map pruning: the
// selective window over the pruning fixture must skip blocks and still
// return exactly the in-window rows. It uses a small local copy of the
// fixture so `go test` stays fast.
func TestZoneMapPruningFixture(t *testing.T) {
	cluster, err := kv.OpenCluster(t.TempDir(), kv.ClusterOptions{Options: kv.Options{DisableWAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	cat := NewCatalog(cluster, IndexConfig{})
	d := &Desc{
		Name: "zorders", Kind: KindCommon,
		Columns: []Column{
			{Name: "fid", Type: exec.TypeInt, PrimaryKey: true},
			{Name: "time", Type: exec.TypeTime},
			{Name: "geom", Type: exec.TypeGeometry, Subtype: "point"},
		},
		Indexes:   []IndexDesc{{Strategy: "attr", ID: 0}},
		FidColumn: "fid", GeomColumn: "geom", TimeColumn: "time",
	}
	if err := cat.Create(d); err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(d, cluster, IndexConfig{Shards: 2, Period: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	const n = 8000
	day := int64(24 * 3600 * 1000)
	step := float64(day) / n
	fixture := make([]exec.Row, 0, n)
	for i := 0; i < n; i++ {
		fixture = append(fixture, exec.Row{
			int64(i),
			int64(float64(i) * step),
			geom.Point{Lng: 116.0 + rng.Float64(), Lat: 39.5 + rng.Float64()},
		})
	}
	if err := insertRows(tbl, fixture...); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Flush(); err != nil {
		t.Fatal(err)
	}

	q := index.Query{
		Window:  geom.WorldMBR,
		HasTime: true,
		TMin:    10 * 3600 * 1000,
		TMax:    11 * 3600 * 1000,
	}
	rows := 0
	if err := tbl.ScanBatches(context.Background(), q, nil, func(cb *exec.ColumnBatch) bool {
		rows += cb.Len()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < n; i++ {
		ts := int64(float64(i) * step)
		if ts >= q.TMin && ts <= q.TMax {
			want++
		}
	}
	if rows != want {
		t.Fatalf("pruned scan returned %d rows, want %d", rows, want)
	}
	m := cluster.Metrics()
	if m.BlocksSkipped == 0 {
		t.Fatal("zone maps skipped no blocks on the pruning fixture")
	}
	t.Logf("blocks skipped: %d, batches decoded: %d", m.BlocksSkipped, m.BatchesDecoded)
}
