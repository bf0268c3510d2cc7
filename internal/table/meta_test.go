package table

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/kv"
)

// zoneRecorder is a store that keeps the set of registered key-family
// prefixes, as kv.Cluster's registry does.
type zoneRecorder struct {
	kv.Store
	prefixes map[string]bool
}

func (z *zoneRecorder) RegisterKeyFamily(prefix []byte, f kv.KeyFamily) {
	if f.Zone == nil && f.PrefixLen == 0 {
		delete(z.prefixes, string(prefix))
	} else {
		z.prefixes[string(prefix)] = true
	}
	z.Store.RegisterKeyFamily(prefix, f)
}

// TestDropUnregistersZoneExtractors: every Open registers one key family
// (zone extractor, and prefix length for a periodic index) per index
// prefix, so CREATE / DROP cycles that left them registered would grow
// the registry that every flushed and compacted key is matched against,
// and pin each dropped table's codec.
func TestDropUnregistersZoneExtractors(t *testing.T) {
	_, cluster := newTestTable(t)
	store := &zoneRecorder{Store: cluster, prefixes: map[string]bool{}}
	cat := NewCatalog(store, IndexConfig{Period: 24 * time.Hour})
	for i := 0; i < 10; i++ {
		d := &Desc{
			Name: "cycled", Kind: KindCommon, Columns: testColumns(),
			Indexes:   []IndexDesc{{Strategy: "attr", ID: 0}, {Strategy: "z2t", ID: 1}},
			FidColumn: "fid", GeomColumn: "geom", TimeColumn: "time",
		}
		if err := cat.Create(d); err != nil {
			t.Fatal(err)
		}
		if _, err := cat.Open(d.User, d.Name); err != nil {
			t.Fatal(err)
		}
		if len(store.prefixes) != len(d.Indexes) {
			t.Fatalf("cycle %d: %d extractors registered, want %d", i, len(store.prefixes), len(d.Indexes))
		}
		if err := cat.Drop(bg, d.User, d.Name); err != nil {
			t.Fatal(err)
		}
		if len(store.prefixes) != 0 {
			t.Fatalf("cycle %d: %d extractors still registered after the drop", i, len(store.prefixes))
		}
	}
}

// TestOpenDropsStaleMetaKeys: commits applied out of order leave a
// narrower bound's key beside the widest one. Open reads the widest and
// deletes the rest.
func TestOpenDropsStaleMetaKeys(t *testing.T) {
	tbl, cluster := newTestTable(t)
	rows := []exec.Row{
		{int64(1), int64(100), geom.Point{Lng: 116, Lat: 39}, "a"},
		{int64(2), int64(200), geom.Point{Lng: 116, Lat: 39}, "b"},
	}
	if err := insertRows(tbl, rows...); err != nil {
		t.Fatal(err)
	}
	var b kv.WriteBatch
	b.Put(tbl.loKey(150), nil)
	b.Put(tbl.hiKey(150), nil)
	if err := cluster.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(tbl.Desc, cluster, IndexConfig{Shards: 2, Period: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if span := reopened.TimeSpan(); span.Min != 100 || span.Max != 200 {
		t.Fatalf("reopened span = %+v, want [100, 200]", span)
	}
	var left [][]byte
	err = kv.ScanRange(bg, cluster, index.KeysUnder(metaPrefix(tbl.Desc.TableID)), func(k, _ []byte) bool {
		left = append(left, append([]byte(nil), k...))
		return true
	})
	want := [][]byte{tbl.hiKey(200), tbl.loKey(100)}
	if err != nil || len(left) != len(want) {
		t.Fatalf("meta keys after open = %q (err %v), want %q", left, err, want)
	}
	for i := range want {
		if !bytes.Equal(left[i], want[i]) {
			t.Fatalf("meta keys after open = %q, want %q", left, want)
		}
	}
}

// applyGate is a store whose ApplyCtx the test can intercept.
type applyGate struct {
	kv.Store
	apply func(ctx context.Context, b *kv.WriteBatch) error
}

func (g *applyGate) ApplyCtx(ctx context.Context, b *kv.WriteBatch) error { return g.apply(ctx, b) }

// TestBatchInsideUncommittedWideningKeepsItsBound: batch A widens the
// planner's span to 50 h and stalls in its commit; batch B, with a row
// at 40 h inside that span, commits; then A is lost, as a crash before
// its WAL sync loses it. B's row must still lie inside the span a
// reopen reads, so B has to carry its own bound.
func TestBatchInsideUncommittedWideningKeepsItsBound(t *testing.T) {
	_, cluster := newTestTable(t)
	entered, release := make(chan struct{}), make(chan struct{})
	var stall atomic.Bool
	store := &applyGate{Store: cluster}
	store.apply = func(ctx context.Context, b *kv.WriteBatch) error {
		if stall.CompareAndSwap(true, false) {
			close(entered)
			<-release
			return errors.New("lost before its WAL sync")
		}
		return cluster.ApplyCtx(ctx, b)
	}
	cat := NewCatalog(store, IndexConfig{Shards: 2, Period: 24 * time.Hour})
	d := &Desc{
		Name: "gated", Kind: KindCommon, Columns: testColumns(),
		Indexes:   []IndexDesc{{Strategy: "attr", ID: 0}, {Strategy: "z2t", ID: 1}},
		FidColumn: "fid", GeomColumn: "geom", TimeColumn: "time",
	}
	if err := cat.Create(d); err != nil {
		t.Fatal(err)
	}
	tbl, err := cat.Open("", "gated")
	if err != nil {
		t.Fatal(err)
	}
	row := func(fid int64, hour int64) exec.Row {
		r := make(exec.Row, len(d.Columns))
		r[0], r[2], r[3] = fid, hour*hourMS, geom.Point{Lng: 116, Lat: 39}
		return r
	}
	if err := insertRows(tbl, row(1, 1)); err != nil {
		t.Fatal(err)
	}
	stall.Store(true)
	lost := make(chan error)
	go func() { lost <- insertRows(tbl, row(2, 50)) }()
	<-entered
	if err := insertRows(tbl, row(3, 40)); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-lost; err == nil {
		t.Fatal("the stalled batch reported success")
	}
	reopened, err := Open(d, cluster, IndexConfig{Shards: 2, Period: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if span := reopened.TimeSpan(); span.Min != 1*hourMS || span.Max != 40*hourMS {
		t.Fatalf("span after the lost batch = %+v, want [1 h, 40 h]", span)
	}
}
