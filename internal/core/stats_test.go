package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/jobs"
	"just/internal/kv"
)

func gridRows(from, n int) []exec.Row {
	rows := make([]exec.Row, 0, n)
	for i := from; i < from+n; i++ {
		rows = append(rows, exec.Row{
			int64(i), fmt.Sprintf("r%d", i), int64(i) * hourMS / 4,
			geom.Point{Lng: 116.0 + float64(i%100)*0.01, Lat: 39.0 + float64(i/100%100)*0.01},
		})
	}
	return rows
}

// TestCompactionRefreshesAnalyzedStats: a background tier merge kicks a
// statistics refresh of every ANALYZEd table, so the planner's sample
// catches up with rows inserted since the ANALYZE without another one.
func TestCompactionRefreshesAnalyzedStats(t *testing.T) {
	e, err := Open(Config{
		Dir: t.TempDir(),
		Cluster: kv.ClusterOptions{Options: kv.Options{
			DisableWAL: true, MemtableBytes: 32 << 10, MaxTables: 2,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkInsert("", "pts", gridRows(0, 100)); err != nil {
		t.Fatal(err)
	}
	analyzed, err := e.RefreshStats(context.Background(), "", "pts")
	if err != nil {
		t.Fatal(err)
	}
	refreshes := e.StatsRefreshes()
	compactions := e.Store().Metrics().Compactions

	// Enough rows for several flushes, so the tier merge runs on the
	// flusher behind them.
	if err := e.BulkInsert("", "pts", gridRows(100, 5000)); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.OpenTable("", "pts")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for e.StatsRefreshes() == refreshes || tbl.Stats().RowCount <= analyzed.RowCount {
		if time.Now().After(deadline) {
			t.Fatalf("no stats refresh after compaction: refreshes %d -> %d, compactions %d -> %d, rows %d -> %d",
				refreshes, e.StatsRefreshes(), compactions, e.Store().Metrics().Compactions,
				analyzed.RowCount, tbl.Stats().RowCount)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if e.Store().Metrics().Compactions == compactions {
		t.Fatal("stats refreshed without a compaction")
	}
}

// TestRefreshStatsDedupesConcurrentCalls: ANALYZE callers that arrive
// while a collection of the same table is pending join it.
func TestRefreshStatsDedupesConcurrentCalls(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkInsert("", "pts", gridRows(0, 500)); err != nil {
		t.Fatal(err)
	}
	// Hold the stats class's single slot, so the first caller's
	// collection waits for it and the others find it pending.
	release := make(chan struct{})
	held := make(chan struct{})
	go e.Jobs().Do(context.Background(), jobs.ClassStats, func(context.Context) error {
		close(held)
		<-release
		return nil
	})
	<-held
	before := e.StatsRefreshes()
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.RefreshStats(context.Background(), "", "pts"); err != nil {
				t.Error(err)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the callers reach the pending collection
	close(release)
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := e.StatsRefreshes() - before; n < 1 || n >= callers {
		t.Fatalf("%d concurrent RefreshStats ran %d collections, want 1..%d", callers, n, callers-1)
	}
}
