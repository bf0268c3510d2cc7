package table

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/kv"
)

// The ingest benchmarks compare the per-row seed write path (Insert:
// one cluster Put per index copy, one existence probe per row) against
// the batched group-commit path (InsertBatch: parallel encode/gzip, one
// MultiGet probe, one WriteBatch per chunk). Storage settings mirror
// the evaluation harness (benchClusterOptions): WAL off — the paper's
// bulk-ingestion configuration, and the only fair comparison, since the
// per-row seed path never syncs its WAL while the batch path syncs at
// every group-commit boundary.
func ingestClusterOptions() kv.ClusterOptions {
	return benchClusterOptions()
}

const (
	ingestTrajCount       = 1200
	ingestTrajCountShort  = 300
	ingestTrajPoints      = 200
	ingestOrderCount      = 20000
	ingestOrderCountShort = 4000
	ingestChunkRows       = 4096 // Engine.BulkInsert's chunk size
)

func ingestTrajTable(b *testing.B) (*Table, *kv.Cluster) {
	b.Helper()
	cluster, err := kv.OpenCluster(b.TempDir(), ingestClusterOptions())
	if err != nil {
		b.Fatal(err)
	}
	cat := NewCatalog(cluster, IndexConfig{})
	d, err := NewDescFromPlugin("", "traj", "trajectory")
	if err != nil {
		b.Fatal(err)
	}
	if err := cat.Create(d); err != nil {
		b.Fatal(err)
	}
	tbl, err := Open(d, cluster, IndexConfig{Shards: 2, Period: 24 * time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	return tbl, cluster
}

func ingestTrajRows(b *testing.B) []exec.Row {
	b.Helper()
	n := ingestTrajCount
	if testing.Short() {
		n = ingestTrajCountShort
	}
	rng := rand.New(rand.NewSource(42))
	rows := make([]exec.Row, 0, n)
	for i := 0; i < n; i++ {
		lng := 116.0 + rng.Float64()
		lat := 39.5 + rng.Float64()
		t0 := int64(rng.Intn(int(benchDayMS - int64(ingestTrajPoints)*3000)))
		pts := make([]geom.TPoint, ingestTrajPoints)
		for j := range pts {
			lng += (rng.Float64() - 0.5) * 2e-4
			lat += (rng.Float64() - 0.5) * 2e-4
			pts[j] = geom.TPoint{
				Point: geom.Point{Lng: lng, Lat: lat},
				T:     t0 + int64(j)*3000,
			}
		}
		row, err := (&Trajectory{ID: fmt.Sprintf("t-%05d", i), Points: pts}).Row()
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, row)
	}
	return rows
}

func ingestOrderTable(b *testing.B) (*Table, *kv.Cluster) {
	b.Helper()
	cluster, err := kv.OpenCluster(b.TempDir(), ingestClusterOptions())
	if err != nil {
		b.Fatal(err)
	}
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
		b.Fatal(err)
	}
	tbl, err := Open(d, cluster, IndexConfig{Shards: 2, Period: 24 * time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	return tbl, cluster
}

func ingestOrderRows(b *testing.B) []exec.Row {
	b.Helper()
	n := ingestOrderCount
	if testing.Short() {
		n = ingestOrderCountShort
	}
	rng := rand.New(rand.NewSource(7))
	rows := make([]exec.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, exec.Row{
			int64(i),
			int64(rng.Intn(int(benchDayMS))),
			geom.Point{Lng: 116.0 + rng.Float64(), Lat: 39.5 + rng.Float64()},
			fmt.Sprintf("rider-%04d", rng.Intn(500)),
			rng.Float64() * 30,
		})
	}
	return rows
}

// runIngestBench times inserting rows into a fresh table each iteration
// (including the final Flush, so both paths pay for reaching disk) and
// reports rows/s plus the encoded MB/s via SetBytes.
func runIngestBench(b *testing.B, rows []exec.Row, mk func(*testing.B) (*Table, *kv.Cluster), insert func(*Table, []exec.Row) error) {
	scratch, scratchCluster := mk(b)
	var encoded int64
	for _, r := range rows {
		v, err := scratch.codec.Encode(r)
		if err != nil {
			b.Fatal(err)
		}
		encoded += int64(len(v))
	}
	scratchCluster.Close()
	b.SetBytes(encoded)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tbl, cluster := mk(b)
		b.StartTimer()
		if err := insert(tbl, rows); err != nil {
			b.Fatal(err)
		}
		if err := cluster.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cluster.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func insertSeed(t *Table, rows []exec.Row) error {
	for _, r := range rows {
		if err := t.insertOne(bg, r); err != nil {
			return err
		}
	}
	return nil
}

func insertBatched(t *Table, rows []exec.Row) error {
	for len(rows) > 0 {
		n := ingestChunkRows
		if n > len(rows) {
			n = len(rows)
		}
		if err := t.InsertBatchCtx(bg, rows[:n]); err != nil {
			return err
		}
		rows = rows[n:]
	}
	return nil
}

// BenchmarkIngestTrajSeed: per-row inserts of gzip-compressed
// trajectories into the plugin table (attr + XZ2 + XZ2T indexes).
func BenchmarkIngestTrajSeed(b *testing.B) {
	runIngestBench(b, ingestTrajRows(b), ingestTrajTable, insertSeed)
}

// BenchmarkIngestTrajBatched: the same rows through InsertBatch.
func BenchmarkIngestTrajBatched(b *testing.B) {
	runIngestBench(b, ingestTrajRows(b), ingestTrajTable, insertBatched)
}

// BenchmarkIngestOrderSeed: per-row inserts of uncompressed point rows
// (attr + Z2T indexes), the paper's order scenario.
func BenchmarkIngestOrderSeed(b *testing.B) {
	runIngestBench(b, ingestOrderRows(b), ingestOrderTable, insertSeed)
}

// BenchmarkIngestOrderBatched: the same rows through InsertBatch.
func BenchmarkIngestOrderBatched(b *testing.B) {
	runIngestBench(b, ingestOrderRows(b), ingestOrderTable, insertBatched)
}
