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

// The benchmarks reproduce the evaluation harness storage settings
// (internal/bench/systems.go): WAL off, 8 MB block cache.
func benchClusterOptions() kv.ClusterOptions {
	return kv.ClusterOptions{
		Options: kv.Options{
			DisableWAL:      true,
			BlockCacheBytes: 8 << 20,
		},
	}
}

// seedScanQuery replicates the pre-pipeline scan path: parallel KV scan
// copying every pair into batches, with decode, gzip decompression and
// post-filter all on the single consumer goroutine. It is kept here as
// the benchmark baseline for BenchmarkScanPipeline*.
func seedScanQuery(t *Table, q index.Query, emit func(exec.Row) bool) error {
	path, err := t.PlanAccess(q)
	if err != nil {
		return err
	}
	newTask := func() kv.TaskCollector[[][]byte] {
		var batch [][]byte
		return kv.TaskCollector[[][]byte]{
			Add: func(_, v []byte) ([][]byte, bool, error) {
				batch = append(batch, append([]byte(nil), v...))
				if len(batch) < 512 {
					return nil, false, nil
				}
				full := batch
				batch = nil
				return full, true, nil
			},
			Finish: func() ([][]byte, bool, error) { return batch, len(batch) > 0, nil },
		}
	}
	var decodeErr error
	err = kv.ScanCollect(context.Background(), t.cluster, path.Ranges, newTask, func(vals [][]byte) bool {
		for _, v := range vals {
			row, err := t.codec.Decode(v)
			if err != nil {
				decodeErr = err
				return false
			}
			if rowMatches(t, row, q) && !emit(row) {
				return false
			}
		}
		return true
	})
	if decodeErr != nil {
		return decodeErr
	}
	return err
}

var (
	trajBenchOnce sync.Once
	trajBenchTbl  *Table
	trajBenchErr  error
)

const (
	benchTrajCount  = 1500
	benchTrajPoints = 300
	benchDayMS      = int64(24 * 3600 * 1000)
)

// trajBenchTable loads a compressed trajectory table once and reuses it
// across benchmarks (the directory lives in the OS temp area for the
// life of the process).
func trajBenchTable() (*Table, error) {
	trajBenchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "just-bench-traj-")
		if err != nil {
			trajBenchErr = err
			return
		}
		cluster, err := kv.OpenCluster(dir, benchClusterOptions())
		if err != nil {
			trajBenchErr = err
			return
		}
		cat := NewCatalog(cluster, IndexConfig{})
		d, err := NewDescFromPlugin("", "traj", "trajectory")
		if err != nil {
			trajBenchErr = err
			return
		}
		if err := cat.Create(d); err != nil {
			trajBenchErr = err
			return
		}
		tbl, err := Open(d, cluster, IndexConfig{Shards: 2, Period: 24 * time.Hour})
		if err != nil {
			trajBenchErr = err
			return
		}
		rng := rand.New(rand.NewSource(42))
		rows := make([]exec.Row, 0, benchTrajCount)
		for i := 0; i < benchTrajCount; i++ {
			lng := 116.0 + rng.Float64()
			lat := 39.5 + rng.Float64()
			t0 := int64(rng.Intn(int(benchDayMS - int64(benchTrajPoints)*3000)))
			pts := make([]geom.TPoint, benchTrajPoints)
			for j := range pts {
				lng += (rng.Float64() - 0.5) * 2e-4
				lat += (rng.Float64() - 0.5) * 2e-4
				pts[j] = geom.TPoint{
					Point: geom.Point{Lng: lng, Lat: lat},
					T:     t0 + int64(j)*3000,
				}
			}
			traj := &Trajectory{ID: fmt.Sprintf("t-%05d", i), Points: pts}
			row, err := traj.Row()
			if err != nil {
				trajBenchErr = err
				return
			}
			rows = append(rows, row)
		}
		if err := insertRows(tbl, rows...); err != nil {
			trajBenchErr = err
			return
		}
		if err := cluster.Flush(); err != nil {
			trajBenchErr = err
			return
		}
		trajBenchTbl = tbl
	})
	return trajBenchTbl, trajBenchErr
}

// benchTrajQuery is an ST range over a sub-window in space and a 2-hour
// slice of the day: the XZ2T index scans every trajectory in the
// covering period bins, so most scanned pairs are post-filtered — the
// case the in-worker filter phase accelerates by skipping their GPS
// gzip decompression.
func benchTrajQuery() index.Query {
	return index.Query{
		Window:  geom.NewMBR(116.2, 39.7, 116.7, 40.2),
		HasTime: true,
		TMin:    10 * 3600 * 1000,
		TMax:    12 * 3600 * 1000,
	}
}

func runTrajBench(b *testing.B, scan func(*Table, index.Query, func(exec.Row) bool) error, needGPS bool) {
	tbl, err := trajBenchTable()
	if err != nil {
		b.Fatal(err)
	}
	q := benchTrajQuery()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows = 0
		if err := scan(tbl, q, func(r exec.Row) bool {
			if needGPS && r[6] == nil {
				b.Fatal("gps_list not decoded")
			}
			rows++
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

// BenchmarkScanPipelineTrajST: the pipelined path (decode+filter inside
// scan workers, two-phase decode).
func BenchmarkScanPipelineTrajST(b *testing.B) {
	runTrajBench(b, func(t *Table, q index.Query, emit func(exec.Row) bool) error {
		return t.ScanQuery(context.Background(), q, emit)
	}, true)
}

// BenchmarkScanPipelineTrajSTSeed: the pre-pipeline baseline (copy every
// pair, decode everything on one goroutine).
func BenchmarkScanPipelineTrajSTSeed(b *testing.B) {
	runTrajBench(b, seedScanQuery, true)
}

// BenchmarkScanPipelineTrajSTProjected: pipelined path with the GPS list
// projected out — survivors skip gzip too.
func BenchmarkScanPipelineTrajSTProjected(b *testing.B) {
	needed := make([]bool, 7)
	needed[0] = true // tid
	runTrajBench(b, func(t *Table, q index.Query, emit func(exec.Row) bool) error {
		return t.ScanProjected(context.Background(), q, needed, emit)
	}, false)
}

var (
	orderBenchOnce sync.Once
	orderBenchTbl  *Table
	orderBenchErr  error
)

const benchOrderCount = 30000

// orderBenchTable loads a plain (uncompressed) point table, the paper's
// order scenario.
func orderBenchTable() (*Table, error) {
	orderBenchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "just-bench-order-")
		if err != nil {
			orderBenchErr = err
			return
		}
		cluster, err := kv.OpenCluster(dir, benchClusterOptions())
		if err != nil {
			orderBenchErr = err
			return
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
			orderBenchErr = err
			return
		}
		tbl, err := Open(d, cluster, IndexConfig{Shards: 2, Period: 24 * time.Hour})
		if err != nil {
			orderBenchErr = err
			return
		}
		rng := rand.New(rand.NewSource(7))
		rows := make([]exec.Row, 0, benchOrderCount)
		for i := 0; i < benchOrderCount; i++ {
			rows = append(rows, exec.Row{
				int64(i),
				int64(rng.Intn(int(benchDayMS))),
				geom.Point{Lng: 116.0 + rng.Float64(), Lat: 39.5 + rng.Float64()},
				fmt.Sprintf("rider-%04d", rng.Intn(500)),
				rng.Float64() * 30,
			})
		}
		if err := insertRows(tbl, rows...); err != nil {
			orderBenchErr = err
			return
		}
		if err := cluster.Flush(); err != nil {
			orderBenchErr = err
			return
		}
		orderBenchTbl = tbl
	})
	return orderBenchTbl, orderBenchErr
}

func runOrderBench(b *testing.B, scan func(*Table, index.Query, func(exec.Row) bool) error) {
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
		if err := scan(tbl, q, func(r exec.Row) bool {
			rows++
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

func BenchmarkScanPipelineOrderST(b *testing.B) {
	runOrderBench(b, func(t *Table, q index.Query, emit func(exec.Row) bool) error {
		return t.ScanQuery(context.Background(), q, emit)
	})
}

func BenchmarkScanPipelineOrderSTSeed(b *testing.B) {
	runOrderBench(b, seedScanQuery)
}
