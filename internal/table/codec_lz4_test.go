package table

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/kv"
)

// TestFieldCompressSniffing: every field codec round-trips, and the
// decoder dispatches on the stored bytes — a field written under one
// method stays readable when the column later declares another.
func TestFieldCompressSniffing(t *testing.T) {
	payload := bytes.Repeat([]byte("order payload with structure;"), 40)
	methods := []string{"gzip", "zip", "lz4"}
	for _, wrote := range methods {
		enc, err := compressField(wrote, payload)
		if err != nil {
			t.Fatalf("compress %s: %v", wrote, err)
		}
		for _, declared := range methods {
			var buf bytes.Buffer
			if err := decompressInto(&buf, declared, enc); err != nil {
				t.Fatalf("wrote %s, declared %s: %v", wrote, declared, err)
			}
			if !bytes.Equal(buf.Bytes(), payload) {
				t.Fatalf("wrote %s, declared %s: payload mismatch", wrote, declared)
			}
		}
	}
	if _, err := compressField("snappy", payload); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestSTSeriesDelta2 pins the delta-of-delta timestamp format: it
// round-trips irregular series, decodes the legacy first-order-delta
// format, and beats it on regularly sampled GPS fixes.
func TestSTSeriesDelta2(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	irregular := make([]geom.TPoint, 200)
	tm := int64(0)
	for i := range irregular {
		tm += int64(rng.Intn(10000))
		irregular[i] = geom.TPoint{
			Point: geom.Point{Lng: 116 + rng.Float64(), Lat: 39 + rng.Float64()},
			T:     tm,
		}
	}
	var buf bytes.Buffer
	encodeSTSeries(&buf, irregular, true)
	if buf.Bytes()[0] != stSeriesFormatDelta2 {
		t.Fatalf("compressed write used format %d, want %d", buf.Bytes()[0], stSeriesFormatDelta2)
	}
	got, err := decodeSTSeries(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := range irregular {
		if got[i].T != irregular[i].T {
			t.Fatalf("point %d: T=%d want %d", i, got[i].T, irregular[i].T)
		}
		if math.Abs(got[i].Lng-irregular[i].Lng) > 1e-6 || math.Abs(got[i].Lat-irregular[i].Lat) > 1e-6 {
			t.Fatalf("point %d: coordinates off", i)
		}
	}

	// Legacy format 1 (first-order timestamp deltas) must stay decodable:
	// hand-encode the same points the way the previous release did.
	var legacy bytes.Buffer
	legacy.WriteByte(stSeriesFormatDelta)
	writeUvarint(&legacy, uint64(len(irregular)))
	var b [binary.MaxVarintLen64]byte
	var prevLng, prevLat, prevT int64
	for _, p := range irregular {
		lng := int64(math.Round(p.Lng * stSeriesScale))
		lat := int64(math.Round(p.Lat * stSeriesScale))
		n := binary.PutVarint(b[:], lng-prevLng)
		legacy.Write(b[:n])
		n = binary.PutVarint(b[:], lat-prevLat)
		legacy.Write(b[:n])
		n = binary.PutVarint(b[:], p.T-prevT)
		legacy.Write(b[:n])
		prevLng, prevLat, prevT = lng, lat, p.T
	}
	old, err := decodeSTSeries(legacy.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old, got) {
		t.Fatal("legacy format-1 decode disagrees with format-2 decode of the same points")
	}

	// Regular sampling (fixed 3 s interval) is where delta-of-delta wins:
	// second differences are zero, one byte per timestamp.
	regular := make([]geom.TPoint, 200)
	for i := range regular {
		regular[i] = geom.TPoint{Point: irregular[i].Point, T: int64(i) * 3000}
	}
	var dod bytes.Buffer
	encodeSTSeries(&dod, regular, true)
	var d1 bytes.Buffer
	d1.WriteByte(stSeriesFormatDelta)
	writeUvarint(&d1, uint64(len(regular)))
	prevLng, prevLat, prevT = 0, 0, 0
	for _, p := range regular {
		lng := int64(math.Round(p.Lng * stSeriesScale))
		lat := int64(math.Round(p.Lat * stSeriesScale))
		n := binary.PutVarint(b[:], lng-prevLng)
		d1.Write(b[:n])
		n = binary.PutVarint(b[:], lat-prevLat)
		d1.Write(b[:n])
		n = binary.PutVarint(b[:], p.T-prevT)
		d1.Write(b[:n])
		prevLng, prevLat, prevT = lng, lat, p.T
	}
	if dod.Len() >= d1.Len() {
		t.Fatalf("delta-of-delta %d bytes, first-order delta %d: no win on regular sampling", dod.Len(), d1.Len())
	}
}

// newTrajTestTableCodec is newTrajTestTable with the GPS list column's
// compression method overridden.
func newTrajTestTableCodec(t *testing.T, rng *rand.Rand, n int, method string) *Table {
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
	for i := range d.Columns {
		if d.Columns[i].Compress != "" {
			d.Columns[i].Compress = method
		}
	}
	if err := cat.Create(d); err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(d, cluster, IndexConfig{Shards: 2, Period: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	day := int64(24 * 3600 * 1000)
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
		if err := insertRows(tbl, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := cluster.Flush(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestScanBatchesGzipLZ4Equality: identical trajectories stored under
// gzip and lz4 field compression must scan back identical through the
// columnar pipeline — the codec changes bytes on disk, never results.
func TestScanBatchesGzipLZ4Equality(t *testing.T) {
	const seed, n = 7, 60
	gz := newTrajTestTableCodec(t, rand.New(rand.NewSource(seed)), n, "gzip")
	lz := newTrajTestTableCodec(t, rand.New(rand.NewSource(seed)), n, "lz4")
	q := index.Query{Window: geom.NewMBR(115.5, 39.0, 117.5, 41.0)}
	a := canonicalRows(collectBatched(t, gz, q, nil))
	b := canonicalRows(collectBatched(t, lz, q, nil))
	if len(a) == 0 {
		t.Fatal("query matched no rows")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("gzip scan (%d rows) != lz4 scan (%d rows)", len(a), len(b))
	}
}

// TestGzipRowsReadableAfterLZ4Migration: rows written while a column
// declared gzip must stay readable after the declaration flips to lz4
// (the sniffing decoder), with new rows written as lz4 alongside.
func TestGzipRowsReadableAfterLZ4Migration(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := newTrajTestTableCodec(t, rng, 20, "gzip")
	for i := range tbl.Desc.Columns {
		if tbl.Desc.Columns[i].Compress == "gzip" {
			tbl.Desc.Columns[i].Compress = "lz4"
		}
	}
	// The codec holds its own column slice; rebuild it as a reopen would.
	tbl.codec = NewCodec(tbl.Desc.Columns)
	pts := []geom.TPoint{{Point: geom.Point{Lng: 116.4, Lat: 39.9}, T: 1000}}
	traj := &Trajectory{ID: "t-new", Points: pts}
	row, err := traj.Row()
	if err != nil {
		t.Fatal(err)
	}
	if err := insertRows(tbl, row); err != nil {
		t.Fatal(err)
	}
	q := index.Query{Window: geom.NewMBR(115.5, 39.0, 117.5, 41.0)}
	rows := collectBatched(t, tbl, q, nil)
	if len(rows) != 21 {
		t.Fatalf("scanned %d rows after migration, want 21", len(rows))
	}
	for _, r := range rows {
		if _, ok := r[len(r)-1].([]geom.TPoint); !ok {
			t.Fatalf("row %v: GPS list column failed to decode", r[0])
		}
	}
}

// TestStatsDrivenInterning: after ANALYZE, a low-cardinality string
// column is flagged for interning and the columnar scan materializes
// one canonical string per distinct value within a batch.
func TestStatsDrivenInterning(t *testing.T) {
	tbl := newOrderTestTable(t, rand.New(rand.NewSource(5)), 900, 0)
	if tbl.internCols.Load() != nil {
		t.Fatal("interning enabled before statistics")
	}
	if _, err := tbl.RefreshStats(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := tbl.Stats()
	if st.StringSampled == 0 {
		t.Fatal("no string sample collected")
	}
	if d := st.StringDistinct["rider"]; d == 0 || d > 50 {
		t.Fatalf("rider sampled distinct = %d, want 1..50", d)
	}
	ic := tbl.internCols.Load()
	if ic == nil {
		t.Fatal("low-cardinality rider column not flagged for interning")
	}
	riderIdx := tbl.Schema().Index("rider")
	if !(*ic)[riderIdx] {
		t.Fatal("rider flag not set")
	}

	q := index.Query{Window: geom.NewMBR(115.9, 39.4, 117.1, 40.6)}
	sawShared := false
	err := tbl.ScanBatches(context.Background(), q, nil, func(b *exec.ColumnBatch) bool {
		strs := b.Col(riderIdx).Strs
		first := map[string]*byte{}
		for i := 0; i < b.Rows(); i++ {
			s := strs[i]
			if s == "" {
				continue
			}
			p := unsafe.StringData(s)
			if prev, ok := first[s]; ok {
				if prev != p {
					t.Errorf("equal rider strings not interned within a batch")
					return false
				}
				sawShared = true
			} else {
				first[s] = p
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawShared {
		t.Fatal("no batch contained a repeated rider value; fixture too small")
	}
}
