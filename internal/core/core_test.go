package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/kv"
	"just/internal/table"
)

const hourMS = int64(3600 * 1000)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(Config{
		Dir:     t.TempDir(),
		Cluster: kv.ClusterOptions{Options: kv.Options{DisableWAL: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func pointDesc(name string) *table.Desc {
	return &table.Desc{
		Name: name,
		Columns: []table.Column{
			{Name: "fid", Type: exec.TypeInt, PrimaryKey: true},
			{Name: "name", Type: exec.TypeString},
			{Name: "time", Type: exec.TypeTime},
			{Name: "geom", Type: exec.TypeGeometry, Subtype: "point", SRID: 4326},
		},
	}
}

func TestCreateTableDefaults(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.OpenTable("", "pts")
	if err != nil {
		t.Fatal(err)
	}
	d := tbl.Desc
	if d.FidColumn != "fid" || d.GeomColumn != "geom" || d.TimeColumn != "time" {
		t.Fatalf("roles = %q %q %q", d.FidColumn, d.GeomColumn, d.TimeColumn)
	}
	var names []string
	for _, ix := range d.Indexes {
		names = append(names, ix.Strategy)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != "[attr z2 z2t]" {
		t.Fatalf("default indexes = %v", names)
	}
}

func TestCreateTableNonPointDefaults(t *testing.T) {
	e := newTestEngine(t)
	d := &table.Desc{
		Name: "lines",
		Columns: []table.Column{
			{Name: "fid", Type: exec.TypeInt, PrimaryKey: true},
			{Name: "geom", Type: exec.TypeGeometry, Subtype: "linestring"},
		},
	}
	if err := e.CreateTable(d); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ix := range d.Indexes {
		names = append(names, ix.Strategy)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != "[attr xz2]" {
		t.Fatalf("non-point defaults = %v", names)
	}
}

func loadGrid(t *testing.T, e *Engine, name string, n int) {
	t.Helper()
	var rows []exec.Row
	for i := 0; i < n; i++ {
		rows = append(rows, exec.Row{
			int64(i),
			fmt.Sprintf("r%d", i),
			int64(i) * hourMS / 4,
			geom.Point{Lng: 116.0 + float64(i%100)*0.01, Lat: 39.0 + float64(i/100)*0.01},
		})
	}
	if err := e.BulkInsert("", name, rows); err != nil {
		t.Fatal(err)
	}
}

func TestSpatialRange(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, e, "pts", 1000)
	// Window covering lng 116.0-116.05, lat 39.0-39.02: 6 x 3 grid points.
	df, err := e.SpatialRange(context.Background(), "", "pts", geom.NewMBR(115.999, 38.999, 116.051, 39.021))
	if err != nil {
		t.Fatal(err)
	}
	if df.Count() != 18 {
		t.Fatalf("spatial range = %d rows, want 18", df.Count())
	}
}

func TestSTRange(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, e, "pts", 1000)
	df, err := e.STRange(context.Background(), "", "pts", geom.WorldMBR, 0, 10*hourMS)
	if err != nil {
		t.Fatal(err)
	}
	// Points at time i*15min; [0h, 10h] inclusive covers i = 0..40.
	if df.Count() != 41 {
		t.Fatalf("st range = %d rows, want 41", df.Count())
	}
	// Combined space+time filter.
	df2, err := e.STRange(context.Background(), "", "pts", geom.NewMBR(115.9, 38.9, 116.05, 39.005), 0, 10*hourMS)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range df2.Collect() {
		id := r[0].(int64)
		if id > 40 || id%100 > 5 {
			t.Fatalf("row %d should be filtered", id)
		}
	}
}

func TestSTRangeMatchesBruteForce(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	type rec struct {
		id  int64
		p   geom.Point
		tms int64
	}
	var recs []rec
	var rows []exec.Row
	for i := 0; i < 2000; i++ {
		r := rec{
			id:  int64(i),
			p:   geom.Point{Lng: 116 + rng.Float64(), Lat: 39 + rng.Float64()},
			tms: rng.Int63n(72 * hourMS),
		}
		recs = append(recs, r)
		rows = append(rows, exec.Row{r.id, "x", r.tms, r.p})
	}
	if err := e.BulkInsert("", "pts", rows); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		win := geom.NewMBR(116+rng.Float64()*0.8, 39+rng.Float64()*0.8,
			116+rng.Float64()*0.8, 39+rng.Float64()*0.8)
		tmin := rng.Int63n(48 * hourMS)
		tmax := tmin + rng.Int63n(24*hourMS)
		want := map[int64]bool{}
		for _, r := range recs {
			if win.Contains(r.p) && r.tms >= tmin && r.tms <= tmax {
				want[r.id] = true
			}
		}
		df, err := e.STRange(context.Background(), "", "pts", win, tmin, tmax)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int64]bool{}
		for _, r := range df.Collect() {
			got[r[0].(int64)] = true
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d rows, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing id %d", trial, id)
			}
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var pts []geom.Point
	var rows []exec.Row
	for i := 0; i < 3000; i++ {
		p := geom.Point{Lng: 116 + rng.Float64()*0.5, Lat: 39 + rng.Float64()*0.5}
		pts = append(pts, p)
		rows = append(rows, exec.Row{int64(i), "x", int64(0), p})
	}
	if err := e.BulkInsert("", "pts", rows); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		q := geom.Point{Lng: 116 + rng.Float64()*0.5, Lat: 39 + rng.Float64()*0.5}
		k := 10 + trial*20
		got, err := e.KNN(context.Background(), "", "pts", q, k, KNNOptions{Root: geom.NewMBR(115, 38, 118, 41)})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), k)
		}
		// Brute-force reference distances.
		dists := make([]float64, len(pts))
		for i, p := range pts {
			dists[i] = geom.EuclideanDistance(q, p)
		}
		sort.Float64s(dists)
		for i, nb := range got {
			if math.Abs(nb.Distance-dists[i]) > 1e-12 {
				t.Fatalf("trial %d: neighbor %d dist %g, want %g", trial, i, nb.Distance, dists[i])
			}
		}
		// Ordered nearest first.
		for i := 1; i < len(got); i++ {
			if got[i-1].Distance > got[i].Distance {
				t.Fatal("kNN results not sorted")
			}
		}
	}
}

func TestKNNFewerThanK(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	e.Insert("", "pts", []exec.Row{
		{int64(1), "a", int64(0), geom.Point{Lng: 1, Lat: 1}},
		{int64(2), "b", int64(0), geom.Point{Lng: 2, Lat: 2}},
	})
	got, err := e.KNN(context.Background(), "", "pts", geom.Point{Lng: 0, Lat: 0}, 10, KNNOptions{Root: geom.NewMBR(0, 0, 4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("results = %d, want 2 (all records)", len(got))
	}
	if _, err := e.KNN(context.Background(), "", "pts", geom.Point{}, 0, KNNOptions{}); err == nil {
		t.Fatal("k=0 should fail")
	}
}

// TestKNNBesideInserts runs k-NN while another goroutine inserts: the
// planner reads the table's time span, which every INSERT widens. Run
// under -race.
func TestKNNBesideInserts(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 40; i++ {
			row := exec.Row{int64(i), "a", int64(i) * hourMS, geom.Point{Lng: 116 + float64(i)*0.001, Lat: 39}}
			if err := e.Insert("", "pts", []exec.Row{row}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	opts := KNNOptions{Root: geom.NewMBR(115.9, 38.9, 116.1, 39.1)}
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.KNN(context.Background(), "", "pts", geom.Point{Lng: 116, Lat: 39}, 5, opts)
			if err != nil || len(got) != 5 {
				t.Fatalf("k-NN after the inserts: %d neighbours, %v", len(got), err)
			}
			return
		default:
		}
		if _, err := e.KNN(context.Background(), "", "pts", geom.Point{Lng: 116, Lat: 39}, 5, opts); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInsertUpdatesStats(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	e.Insert("", "pts", []exec.Row{
		{int64(1), "a", 5 * hourMS, geom.Point{Lng: 1, Lat: 1}},
		{int64(2), "b", 9 * hourMS, geom.Point{Lng: 2, Lat: 2}},
	})
	tbl, err := e.OpenTable("", "pts")
	if err != nil {
		t.Fatal(err)
	}
	if span := tbl.TimeSpan(); span.Min != 5*hourMS || span.Max != 9*hourMS {
		t.Fatalf("span = %+v", span)
	}
	df, err := e.STRange(context.Background(), "", "pts", geom.WorldMBR, 5*hourMS, 9*hourMS)
	if err != nil || df.Count() != 2 {
		t.Fatalf("rows over the span = %v (err %v), want 2", df, err)
	}
}

func TestDropTableRemovesData(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, e, "pts", 100)
	if err := e.DropTable(context.Background(), "", "pts"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.OpenTable("", "pts"); err == nil {
		t.Fatal("catalog entry survives drop")
	}
	// Recreate with the same name: must start empty.
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	df, err := e.SpatialRange(context.Background(), "", "pts", geom.WorldMBR)
	if err != nil {
		t.Fatal(err)
	}
	if df.Count() != 0 {
		t.Fatalf("recreated table has %d rows", df.Count())
	}
}

func TestHistoricalUpdate(t *testing.T) {
	// The update-enabled characteristic: inserting data with old
	// timestamps after newer data works without any index rebuild.
	e := newTestEngine(t)
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	e.Insert("", "pts", []exec.Row{{int64(1), "new", 100 * hourMS, geom.Point{Lng: 1, Lat: 1}}})
	e.Insert("", "pts", []exec.Row{{int64(2), "old", 1 * hourMS, geom.Point{Lng: 1, Lat: 1}}})
	df, err := e.STRange(context.Background(), "", "pts", geom.WorldMBR, 0, 2*hourMS)
	if err != nil {
		t.Fatal(err)
	}
	if df.Count() != 1 || df.Collect()[0][1] != "old" {
		t.Fatalf("historical rows = %v", df.Collect())
	}
}

func TestEngineReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	e.Insert("", "pts", []exec.Row{{int64(1), "a", int64(0), geom.Point{Lng: 5, Lat: 5}}})
	e.Flush()
	e.Close()

	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	df, err := e2.SpatialRange(context.Background(), "", "pts", geom.NewMBR(4, 4, 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	if df.Count() != 1 {
		t.Fatalf("reopened engine sees %d rows", df.Count())
	}
}

func TestTrajectorySTQuery(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateTableAs("", "traj", "trajectory"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var rows []exec.Row
	for i := 0; i < 150; i++ {
		start := int64(rng.Intn(96)) * hourMS / 4
		baseLng := 116.0 + rng.Float64()*0.5
		baseLat := 39.5 + rng.Float64()*0.5
		var pts []geom.TPoint
		for j := 0; j < 15; j++ {
			pts = append(pts, geom.TPoint{
				Point: geom.Point{Lng: baseLng + float64(j)*2e-4, Lat: baseLat + float64(j)*1e-4},
				T:     start + int64(j)*60000,
			})
		}
		tr := &table.Trajectory{ID: fmt.Sprintf("t%03d", i), Points: pts}
		row, err := tr.Row()
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if err := e.BulkInsert("", "traj", rows); err != nil {
		t.Fatal(err)
	}
	df, err := e.STRange(context.Background(), "", "traj", geom.NewMBR(116, 39.5, 116.5, 40.0), 0, 96*hourMS)
	if err != nil {
		t.Fatal(err)
	}
	if df.Count() != 150 {
		t.Fatalf("trajectory ST query = %d, want 150", df.Count())
	}
	// Time-restricted query returns a strict subset.
	df2, err := e.STRange(context.Background(), "", "traj", geom.NewMBR(116, 39.5, 116.5, 40.0), 0, 2*hourMS)
	if err != nil {
		t.Fatal(err)
	}
	if df2.Count() == 0 || df2.Count() >= 150 {
		t.Fatalf("restricted query = %d", df2.Count())
	}
	for _, r := range df2.Collect() {
		if r[4].(int64) > 2*hourMS {
			t.Fatalf("trajectory starting at %d outside window", r[4])
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, e, "pts", 500)
	n := 0
	err := e.Scan(context.Background(), "", "pts", index.Query{Window: geom.WorldMBR}, func(r exec.Row) bool {
		n++
		return n < 7
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("scan emitted %d rows, want 7", n)
	}
}

func TestConcurrentSessions(t *testing.T) {
	// Multiple writers and readers share the engine (the paper's
	// multi-user PaaS deployment); results must stay consistent.
	e := newTestEngine(t)
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var rows []exec.Row
			for i := 0; i < 250; i++ {
				id := int64(w*1000 + i)
				rows = append(rows, exec.Row{
					id, "w", id * 1000,
					geom.Point{Lng: 116 + float64(i)*0.001, Lat: 39 + float64(w)*0.01},
				})
			}
			if err := e.BulkInsert("", "pts", rows); err != nil {
				errs <- err
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				df, err := e.SpatialRange(context.Background(), "", "pts", geom.NewMBR(115, 38, 118, 41))
				if err != nil {
					errs <- err
					return
				}
				df.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	df, err := e.SpatialRange(context.Background(), "", "pts", geom.NewMBR(115, 38, 118, 41))
	if err != nil {
		t.Fatal(err)
	}
	if df.Count() != 1000 {
		t.Fatalf("final count = %d, want 1000", df.Count())
	}
}

func TestStreamInsert(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	ch := make(chan exec.Row)
	done := make(chan error, 1)
	go func() {
		done <- e.StreamInsert("", "pts", ch, 16)
	}()
	for i := 0; i < 100; i++ {
		ch <- exec.Row{int64(i), "s", int64(i) * 1000, geom.Point{Lng: 116.4, Lat: 39.9}}
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	df, err := e.SpatialRange(context.Background(), "", "pts", geom.NewMBR(116, 39, 117, 40))
	if err != nil {
		t.Fatal(err)
	}
	if df.Count() != 100 {
		t.Fatalf("streamed rows = %d", df.Count())
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open without Dir should fail")
	}
}

func TestEngineDiskSizeGrows(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, e, "pts", 2000)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.DiskSize() == 0 {
		t.Fatal("disk size should be positive after flush")
	}
}

func TestScanProjectedMatchesScan(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, e, "pts", 1000)
	q := index.Query{
		Window:  geom.NewMBR(115.999, 38.999, 116.101, 39.051),
		HasTime: true, TMin: 0, TMax: 500 * hourMS,
	}
	full := map[int64]string{}
	if err := e.Scan(context.Background(), "", "pts", q, func(r exec.Row) bool {
		full[r[0].(int64)] = r[1].(string)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("scan found nothing")
	}
	got := map[int64]bool{}
	err := e.ScanProjected(context.Background(), "", "pts", q, []string{"fid"}, func(r exec.Row) bool {
		if r[1] != nil {
			t.Fatalf("name decoded despite projection: %v", r)
		}
		got[r[0].(int64)] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(full) {
		t.Fatalf("projected scan %d rows, full scan %d", len(got), len(full))
	}
	for id := range full {
		if !got[id] {
			t.Fatalf("projected scan missing fid %d", id)
		}
	}
	// Unknown column names degrade to a full decode rather than failing.
	err = e.ScanProjected(context.Background(), "", "pts", q, []string{"nope"}, func(r exec.Row) bool {
		if r[1] == nil {
			t.Fatal("fallback full decode expected")
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
}
