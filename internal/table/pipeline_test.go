package table

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/kv"
)

// TestDecodeProjectedSubsets checks DecodeProjected against Decode for
// every subset of the full test schema (9 columns → 512 subsets),
// including a row with nulls: needed columns must match the full
// decode, skipped columns must stay nil.
func TestDecodeProjectedSubsets(t *testing.T) {
	codec := NewCodec(testColumns())
	rows := []exec.Row{testRow(5), testRow(42)}
	rows[1][1] = nil // null string
	rows[1][7] = nil // null compressed st_series
	for ri, row := range rows {
		data, err := codec.Encode(row)
		if err != nil {
			t.Fatal(err)
		}
		full, err := codec.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		n := len(testColumns())
		for mask := 0; mask < 1<<n; mask++ {
			needed := make([]bool, n)
			for i := 0; i < n; i++ {
				needed[i] = mask&(1<<i) != 0
			}
			got, err := codec.DecodeProjected(data, needed)
			if err != nil {
				t.Fatalf("row %d mask %03x: %v", ri, mask, err)
			}
			for i := 0; i < n; i++ {
				if !needed[i] {
					if got[i] != nil {
						t.Fatalf("row %d mask %03x: column %d decoded despite projection", ri, mask, i)
					}
					continue
				}
				if !reflect.DeepEqual(got[i], full[i]) {
					t.Fatalf("row %d mask %03x column %d: %v != %v", ri, mask, i, got[i], full[i])
				}
			}
		}
	}
}

// TestDecodeIntoBatchSecondPass checks the two-phase decode used by the
// scan pipeline: a filter-column first pass followed by a second pass
// over the complementary mask must fill in the rest of the same batch
// row, and the result must equal the one-pass decode.
func TestDecodeIntoBatchSecondPass(t *testing.T) {
	codec := NewCodec(testColumns())
	data, err := codec.Encode(testRow(9))
	if err != nil {
		t.Fatal(err)
	}
	full, err := codec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	n := len(testColumns())
	phase1, phase2 := make([]bool, n), make([]bool, n)
	for i := range phase2 {
		phase1[i] = i == 2 || i == 3 // time, geom
		phase2[i] = !phase1[i]
	}
	b := exec.NewColumnBatch(codec.schema, 1)
	ri := b.Grow()
	if err := codec.DecodeIntoBatch(b, ri, data, phase1, nil); err != nil {
		t.Fatal(err)
	}
	if out := b.RowAt(0); out[2] == nil || out[3] == nil || out[0] != nil {
		t.Fatalf("phase 1 decoded wrong columns: %v", out)
	}
	if err := codec.DecodeIntoBatch(b, ri, data, phase2, nil); err != nil {
		t.Fatal(err)
	}
	if out := b.RowAt(0); !reflect.DeepEqual([]any(out), []any(full)) {
		t.Fatalf("two-phase decode %v != full decode %v", out, full)
	}
}

func TestScanProjected(t *testing.T) {
	tbl, _ := newTestTable(t)
	for i := 0; i < 100; i++ {
		row := exec.Row{int64(i), int64(i) * hourMS, geom.Point{Lng: 116.4 + float64(i)*0.0001, Lat: 39.9}, "x"}
		if err := insertRows(tbl, row); err != nil {
			t.Fatal(err)
		}
	}
	q := index.Query{
		Window:  geom.NewMBR(116.39, 39.89, 116.42, 39.92),
		HasTime: true, TMin: 0, TMax: 100 * hourMS,
	}
	var fullIDs []int64
	if err := tbl.ScanQuery(context.Background(), q, func(r exec.Row) bool {
		fullIDs = append(fullIDs, r[0].(int64))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(fullIDs) == 0 {
		t.Fatal("ScanQuery found nothing")
	}
	// Project to fid only: the name column must not be decoded; the
	// filter columns (geom/time) are decoded by the filter pass.
	needed := []bool{true, false, false, false}
	var gotIDs []int64
	if err := tbl.ScanProjected(context.Background(), q, needed, func(r exec.Row) bool {
		if r[3] != nil {
			t.Fatalf("projected-out column decoded: %v", r)
		}
		if r[0] == nil {
			t.Fatalf("needed column missing: %v", r)
		}
		gotIDs = append(gotIDs, r[0].(int64))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(gotIDs) != len(fullIDs) {
		t.Fatalf("projected scan found %d rows, full scan %d", len(gotIDs), len(fullIDs))
	}
}

// TestScanDecodeErrorPropagates corrupts a stored value and checks the
// decode error surfaces from inside the scan workers.
func TestScanDecodeErrorPropagates(t *testing.T) {
	tbl, cluster := newTestTable(t)
	for i := 0; i < 50; i++ {
		row := exec.Row{int64(i), int64(i) * hourMS, geom.Point{Lng: 116.4, Lat: 39.9}, "x"}
		if err := insertRows(tbl, row); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite one row's stored value in every index copy with a
	// truncated encoding: the null bitmap claims every column present
	// but no field bytes follow.
	var victims [][]byte
	if err := kv.ScanRange(bg, cluster, kv.KeyRange{}, func(k, v []byte) bool {
		victims = append(victims, append([]byte(nil), k...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(victims) == 0 {
		t.Fatal("no stored keys")
	}
	var b kv.WriteBatch
	for _, k := range victims {
		b.Put(k, []byte{0x00})
	}
	if err := cluster.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	err := tbl.FullScan(context.Background(), func(exec.Row) bool { return true })
	if !errors.Is(err, ErrBadRow) {
		t.Fatalf("FullScan err = %v, want ErrBadRow", err)
	}
	err = tbl.ScanQuery(context.Background(), index.Query{Window: geom.WorldMBR}, func(exec.Row) bool { return true })
	if !errors.Is(err, ErrBadRow) {
		t.Fatalf("ScanQuery err = %v, want ErrBadRow", err)
	}
}

func TestFIDBytesFastPaths(t *testing.T) {
	cases := []struct {
		in   any
		want string
	}{
		{"taxi-7", "taxi-7"},
		{int64(-42), "-42"},
		{int64(0), "0"},
		{uint32(7), "7"}, // fmt fallback
		{float64(1.5), "1.5"},
	}
	for _, c := range cases {
		if got := string(FIDBytes(c.in)); got != c.want {
			t.Errorf("FIDBytes(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	// []byte keys canonicalize to their own contents.
	if got := string(FIDBytes([]byte{0x01, 0xFF})); got != string([]byte{0x01, 0xFF}) {
		t.Errorf("FIDBytes([]byte) = %x", got)
	}
}
