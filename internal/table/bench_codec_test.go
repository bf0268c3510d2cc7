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

// The codec-dimension benchmarks rerun the columnar scan and batched
// ingest workloads under each block codec (none / gzip / lz4) so one
// `go test -bench Codec` run produces the compression section of the
// bench report: rows/s per codec plus the on-disk bytes per row
// ("disk_B/row") that shows what each codec's ratio buys.

var benchCodecs = []string{"none", "gzip", "lz4"}

func codecBenchOptions(codec string) kv.ClusterOptions {
	o := benchClusterOptions()
	o.Options.Codec = codec
	return o
}

var (
	codecBenchMu     sync.Mutex
	codecBenchTables = map[string]*Table{}
	codecBenchSizes  = map[string]int64{}
)

const codecBenchCount = 20000

// codecBenchTable builds (once per codec) the zone-fixture-shaped order
// table — sequential fids, time correlated with key order, 500 distinct
// riders — flushed to SSTables under the requested block codec.
func codecBenchTable(b *testing.B, codec string) (*Table, int64) {
	b.Helper()
	codecBenchMu.Lock()
	defer codecBenchMu.Unlock()
	if tbl, ok := codecBenchTables[codec]; ok {
		return tbl, codecBenchSizes[codec]
	}
	dir, err := os.MkdirTemp("", "just-bench-codec-"+codec+"-")
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := kv.OpenCluster(dir, codecBenchOptions(codec))
	if err != nil {
		b.Fatal(err)
	}
	cat := NewCatalog(cluster, IndexConfig{})
	d := &Desc{
		Name: "corders", Kind: KindCommon,
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
		b.Fatal(err)
	}
	tbl, err := Open(d, cluster, IndexConfig{Shards: 2, Period: 24 * time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	step := float64(benchDayMS) / codecBenchCount
	rows := make([]exec.Row, 0, codecBenchCount)
	for i := 0; i < codecBenchCount; i++ {
		rows = append(rows, exec.Row{
			int64(i),
			int64(float64(i) * step),
			geom.Point{Lng: 116.0 + rng.Float64(), Lat: 39.5 + rng.Float64()},
			fmt.Sprintf("rider-%04d", rng.Intn(500)),
			rng.Float64() * 30,
		})
	}
	if err := insertRows(tbl, rows...); err != nil {
		b.Fatal(err)
	}
	if err := cluster.Flush(); err != nil {
		b.Fatal(err)
	}
	codecBenchTables[codec] = tbl
	codecBenchSizes[codec] = cluster.DiskSize()
	return tbl, codecBenchSizes[codec]
}

// BenchmarkScanPipelineColumnarCodec: the columnar scan over a 2-hour
// time slice of the order fixture, per block codec. Decompression speed
// dominates the delta between gzip and lz4; "none" bounds what zero
// codec cost would buy.
func BenchmarkScanPipelineColumnarCodec(b *testing.B) {
	for _, codec := range benchCodecs {
		b.Run(codec, func(b *testing.B) {
			tbl, disk := codecBenchTable(b, codec)
			q := index.Query{
				Window:  geom.WorldMBR,
				HasTime: true,
				TMin:    10 * 3600 * 1000,
				TMax:    12 * 3600 * 1000,
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
			b.ReportMetric(float64(disk)/codecBenchCount, "disk_B/row")
		})
	}
}

// BenchmarkIngestOrderBatchedCodec: the batched ingest workload per
// block codec — compression speed shows up in the flush cost each
// iteration pays.
func BenchmarkIngestOrderBatchedCodec(b *testing.B) {
	rows := ingestOrderRows(b)
	for _, codec := range benchCodecs {
		b.Run(codec, func(b *testing.B) {
			mk := func(b *testing.B) (*Table, *kv.Cluster) {
				b.Helper()
				cluster, err := kv.OpenCluster(b.TempDir(), codecBenchOptions(codec))
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
			runIngestBench(b, rows, mk, insertBatched)
		})
	}
}
