package table

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/kv"
)

// TestCollectStatsSameOnEveryStore collects statistics over the same
// rows on a standalone cluster and on a router whose table spans at
// least five regions. The scans are serial and in key order on both,
// so the counts, the reservoir samples (more keys than the reservoir
// holds) and the bounded string sample agree exactly.
func TestCollectStatsSameOnEveryStore(t *testing.T) {
	cluster, err := kv.OpenCluster(t.TempDir(), kv.ClusterOptions{Options: kv.Options{DisableWAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })

	lb := kv.NewLoopback()
	node, err := kv.OpenRegionNode(t.TempDir(), kv.NodeOptions{
		Options: kv.Options{DisableWAL: true, MemtableBytes: 8 << 10},
		NodeID:  1, SplitBytes: 16 << 10, Transport: lb,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	lb.Register("s1", node.Handler())
	router, err := kv.OpenRouter(kv.RouterOptions{Peers: []string{"s1"}, Transport: lb})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })

	cat := NewCatalog(cluster, IndexConfig{})
	d := &Desc{
		Name: "points", Kind: KindCommon,
		Columns: []Column{
			{Name: "fid", Type: exec.TypeInt, PrimaryKey: true},
			{Name: "time", Type: exec.TypeTime},
			{Name: "geom", Type: exec.TypeGeometry},
			{Name: "name", Type: exec.TypeString},
		},
		Indexes:   []IndexDesc{{Strategy: "attr", ID: 0}, {Strategy: "z2t", ID: 1}},
		FidColumn: "fid", GeomColumn: "geom", TimeColumn: "time",
	}
	if err := cat.Create(d); err != nil {
		t.Fatal(err)
	}
	const n = 3000 // > statsSampleSize, so the reservoir replaces keys
	var stats []*TableStats
	for _, store := range []kv.Store{cluster, router} {
		tbl, err := Open(d, store, IndexConfig{Shards: 2, Period: 24 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i += 100 {
			var rows []exec.Row
			for j := i; j < i+100; j++ {
				// A name per pair of rows: the distinct count of the
				// string sample depends on which rows it reads.
				rows = append(rows, exec.Row{int64(j), int64(j) * 60_000,
					geom.Point{Lng: 116 + float64(j%97)*0.001, Lat: 39 + float64(j%89)*0.001}, fmt.Sprint("n", j/2)})
			}
			if err := insertRows(tbl, rows...); err != nil {
				t.Fatal(err)
			}
		}
		st, err := tbl.CollectStats(bg)
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, st)
	}
	if got := router.Regions(); got < 5 {
		t.Fatalf("router holds %d regions, want ≥ 5", got)
	}
	a, b := stats[0], stats[1]
	if a.RowCount != n || b.RowCount != n {
		t.Fatalf("row counts = %d, %d, want %d", a.RowCount, b.RowCount, n)
	}
	if !reflect.DeepEqual(a.Indexes, b.Indexes) {
		for id := range a.Indexes {
			t.Errorf("index %d: standalone %d keys, router %d keys, samples equal %v", id,
				a.Indexes[id].Keys, b.Indexes[id].Keys, reflect.DeepEqual(a.Indexes[id].Sample, b.Indexes[id].Sample))
		}
	}
	if a.StringSampled != statsSampleSize || a.StringSampled != b.StringSampled ||
		!reflect.DeepEqual(a.StringDistinct, b.StringDistinct) {
		t.Errorf("string sample: standalone %d rows %v, router %d rows %v",
			a.StringSampled, a.StringDistinct, b.StringSampled, b.StringDistinct)
	}
}
