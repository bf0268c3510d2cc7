package table

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/kv"
)

// collectPairs snapshots every live data pair in a cluster: the keys of
// table ids from 1 up, not the catalog's meta rows.
func collectPairs(t *testing.T, c *kv.Cluster) map[string]string {
	t.Helper()
	pairs := map[string]string{}
	err := kv.ScanRange(bg, c, kv.KeyRange{Start: []byte{0, 0, 0, 1}}, func(k, v []byte) bool {
		pairs[string(k)] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

// TestInsertBatchMatchesInsert drives the same workload — fresh rows,
// upserts that move records in space and time, rows with no geometry,
// and fids repeated within one batch — through the per-row insertOne
// oracle on one cluster and InsertBatchCtx on another, then asserts the stored
// key/value sets are identical. That covers the attribute copy, every
// spatial index copy, and the delete-before-write tombstones.
func TestInsertBatchMatchesInsert(t *testing.T) {
	rowAt := func(fid int, lng, lat float64, hour int64, name string) exec.Row {
		var g any
		if lng != 0 {
			g = geom.Point{Lng: lng, Lat: lat}
		}
		return exec.Row{int64(fid), hour * hourMS, g, name}
	}
	batch1 := make([]exec.Row, 0, 50)
	for i := 0; i < 50; i++ {
		lng, lat := 116.30+float64(i)*0.002, 39.80+float64(i)*0.002
		if i%7 == 0 {
			lng, lat = 0, 0 // non-spatial: lives only in the attribute index
		}
		batch1 = append(batch1, rowAt(i, lng, lat, int64(i%24), fmt.Sprintf("n-%d", i)))
	}
	// Second batch: upserts. fids 0–19 move in space and time (their old
	// index entries must be tombstoned), 20–24 are rewritten in place
	// (same keys, no tombstones), 3 previously non-spatial fids gain a
	// geometry, fid 60 is fresh and appears twice within the batch at two
	// locations, and fid 0 moves twice within the batch.
	batch2 := make([]exec.Row, 0, 30)
	for i := 0; i < 20; i++ {
		batch2 = append(batch2, rowAt(i, 117.10+float64(i)*0.002, 40.10, int64((i+6)%24), fmt.Sprintf("moved-%d", i)))
	}
	for i := 20; i < 25; i++ {
		lng, lat := 116.30+float64(i)*0.002, 39.80+float64(i)*0.002
		batch2 = append(batch2, rowAt(i, lng, lat, int64(i%24), fmt.Sprintf("n-%d", i)))
	}
	batch2 = append(batch2,
		rowAt(7, 116.90, 39.95, 3, "was-nonspatial"),
		rowAt(60, 116.50, 39.60, 4, "dup-first"),
		rowAt(0, 118.00, 40.50, 5, "moved-again"),
		rowAt(60, 116.95, 40.05, 6, "dup-final"),
	)

	serial, serialCluster := newTestTable(t)
	batched, batchedCluster := newTestTable(t)
	for _, rows := range [][]exec.Row{batch1, batch2} {
		for _, row := range rows {
			if err := serial.insertOne(bg, row); err != nil {
				t.Fatal(err)
			}
		}
		if err := batched.InsertBatchCtx(bg, rows); err != nil {
			t.Fatal(err)
		}
	}

	want := collectPairs(t, serialCluster)
	got := collectPairs(t, batchedCluster)
	if len(want) == 0 {
		t.Fatal("serial cluster is empty; test is vacuous")
	}
	for k, v := range want {
		gv, ok := got[k]
		if !ok {
			t.Fatalf("batched path missing key %q", k)
		}
		if gv != v {
			t.Fatalf("batched path stores different value for key %q", k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("batched path has stale extra key %q (tombstone not written?)", k)
		}
	}

	// Point reads resolve within-batch duplicates to the last row.
	row, err := batched.GetCtx(bg, int64(60))
	if err != nil || row[3] != "dup-final" {
		t.Fatalf("Get(60) = %v, %v", row, err)
	}
	row, err = batched.GetCtx(bg, int64(0))
	if err != nil || row[3] != "moved-again" {
		t.Fatalf("Get(0) = %v, %v", row, err)
	}

	// A window over a superseded location must not resurface moved rows.
	old := index.Query{Window: geom.NewMBR(116.49, 39.59, 116.51, 39.61)}
	err = batched.ScanQuery(context.Background(), old, func(r exec.Row) bool {
		if r[0] == int64(60) {
			t.Fatal("superseded within-batch location of fid 60 still indexed")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// insertOne is the single-row write path: one GetCtx for the previous
// version, then one WriteBatch with a delete per moved index entry and
// a put per copy. No production caller is left (every insert is a
// batch of rows); it stays here as the oracle InsertBatchCtx is checked
// against.
func (t *Table) insertOne(ctx context.Context, row exec.Row) error {
	rec := t.record(row)
	value, err := t.codec.Encode(row)
	if err != nil {
		return err
	}
	newKeys := make([][]byte, len(t.strategies))
	for i, s := range t.strategies {
		if rec.Geom == nil {
			continue // non-spatial rows live only in the attribute index
		}
		key, err := s.Key(rec)
		if err != nil {
			return err
		}
		newKeys[i] = append(t.keyPrefix(s.id), key...)
	}
	// Tombstone index entries of a previous version that landed on
	// different keys (the record moved).
	attrKey := append(t.keyPrefix(t.attrID), t.attr.KeyForFID(rec.FID)...)
	var b kv.WriteBatch
	if oldValue, err := t.cluster.GetCtx(ctx, attrKey); err == nil {
		oldRow, err := t.codec.Decode(oldValue)
		if err != nil {
			return err
		}
		oldRec := t.record(oldRow)
		for i, s := range t.strategies {
			if oldRec.Geom == nil {
				continue
			}
			oldKey, err := s.Key(oldRec)
			if err != nil {
				return err
			}
			full := append(t.keyPrefix(s.id), oldKey...)
			if newKeys[i] == nil || !bytes.Equal(full, newKeys[i]) {
				b.Delete(full)
			}
		}
	} else if err != kv.ErrNotFound {
		return err
	}
	widen(&t.minT, &t.maxT, rec.Start, rec.Start)
	b.Put(attrKey, value)
	for _, key := range newKeys {
		if key != nil {
			b.Put(key, value)
		}
	}
	return t.cluster.ApplyCtx(ctx, &b)
}

func TestInsertBatchEmpty(t *testing.T) {
	tbl, cluster := newTestTable(t)
	if err := tbl.InsertBatchCtx(bg, nil); err != nil {
		t.Fatal(err)
	}
	if n := len(collectPairs(t, cluster)); n != 0 {
		t.Fatalf("empty batch wrote %d pairs", n)
	}
}

// TestInsertBatchAllocsPerRow: a 500-row batch of fresh points builds
// its keys in one arena per batch and skips the previous-version decode
// when nothing was found. What is left per row is the codec's encoding,
// each spatial strategy's key, the memtable's nodes and the fid's bytes:
// 16 here, against 25 when every key cost two allocations of its own.
func TestInsertBatchAllocsPerRow(t *testing.T) {
	tbl, _ := newTestTable(t)
	const n, runs = 500, 5
	batches := make([][]exec.Row, runs+1) // AllocsPerRun adds a warm-up run
	for b := range batches {
		batches[b] = make([]exec.Row, n)
		for i := range batches[b] {
			fid := b*n + i
			batches[b][i] = exec.Row{int64(fid), int64(fid%48) * hourMS,
				geom.Point{Lng: 116.3 + float64(fid%97)*0.001, Lat: 39.8 + float64(fid%89)*0.001}, "bj"}
		}
	}
	run := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := tbl.InsertBatchCtx(bg, batches[run]); err != nil {
			t.Fatal(err)
		}
		run++
	})
	perRow := allocs / n
	t.Logf("%v allocations for %d rows: %.2f per row", allocs, n, perRow)
	if perRow > 17 {
		t.Fatalf("%.2f allocations per row, want at most 17", perRow)
	}
}
