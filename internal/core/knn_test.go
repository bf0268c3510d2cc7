package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/table"
	"just/internal/workload"
)

// knnTable is a loaded table and the column positions the brute-force
// reference reads.
type knnTable struct {
	name               string
	rows               []exec.Row
	geom, tStart, tEnd int
}

// bruteKNN is the reference: the k smallest distances from q over every
// row a k-NN with opts may return (geometry MBR meeting Root, time span
// overlapping the bounds), ascending.
func bruteKNN(tb knnTable, q geom.Point, k int, opts KNNOptions) []float64 {
	root := opts.Root
	if root == (geom.MBR{}) {
		root = geom.WorldMBR
	}
	var ds []float64
	for _, r := range tb.rows {
		g := r[tb.geom].(geom.Geometry)
		if !g.MBR().Intersects(root) {
			continue
		}
		if opts.HasTime && (r[tb.tStart].(int64) > opts.TMax || r[tb.tEnd].(int64) < opts.TMin) {
			continue
		}
		ds = append(ds, geom.DistanceToGeometry(q, g))
	}
	sort.Float64s(ds)
	return ds[:min(k, len(ds))]
}

// TestKNNProperty checks k-NN against brute force on seeded random
// data: the sorted distances must equal the exact k smallest, each
// neighbour's distance must be its row's, and no fid may repeat (the
// rule benchmark/oracle.go's verifyKNN applies). The cases aim at the
// square expansion's edges: ties at the k-th distance, rows exactly on
// a round's square edge, q outside the data and outside Root, k at and
// above the row count, time bounds, and non-point geometry.
func TestKNNProperty(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("TestKNNProperty seed = %d", seed)
		}
	})
	rng := rand.New(rand.NewSource(seed))
	e := newTestEngine(t)

	loadPoints := func(t *testing.T, name string, pts []geom.Point) knnTable {
		if err := e.CreateTable(pointDesc(name)); err != nil {
			t.Fatal(err)
		}
		rows := make([]exec.Row, len(pts))
		for i, p := range pts {
			rows[i] = exec.Row{int64(i), "x", rng.Int63n(1000) * hourMS, p}
		}
		if err := e.BulkInsert("", name, rows); err != nil {
			t.Fatal(err)
		}
		return knnTable{name: name, rows: rows, geom: 3, tStart: 2, tEnd: 2}
	}
	uniform := func(n int, box geom.MBR) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{Lng: box.MinLng + rng.Float64()*box.Width(), Lat: box.MinLat + rng.Float64()*box.Height()}
		}
		return pts
	}
	extent := geom.NewMBR(116, 39, 116.5, 39.5)
	// randomOpts mixes Roots (the world, an enclosing box, a random
	// sub-window) with optional time bounds.
	randomOpts := func() KNNOptions {
		var o KNNOptions
		switch rng.Intn(3) {
		case 1:
			o.Root = geom.NewMBR(115.9, 38.9, 116.6, 39.6)
		case 2:
			c := uniform(2, extent)
			o.Root = geom.NewMBR(c[0].Lng, c[0].Lat, c[1].Lng, c[1].Lat)
		}
		if rng.Intn(3) == 0 {
			o.HasTime = true
			o.TMin = rng.Int63n(600) * hourMS
			o.TMax = o.TMin + rng.Int63n(400)*hourMS
		}
		return o
	}
	check := func(t *testing.T, tb knnTable, q geom.Point, k int, opts KNNOptions) {
		t.Helper()
		got, err := e.KNN(context.Background(), "", tb.name, q, k, opts)
		if err != nil {
			t.Fatalf("%s q=%v k=%d opts=%+v: %v", tb.name, q, k, opts, err)
		}
		want := bruteKNN(tb, q, k, opts)
		if len(got) != len(want) {
			t.Fatalf("%s q=%v k=%d opts=%+v: %d neighbours, want %d", tb.name, q, k, opts, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, nb := range got {
			if nb.Distance != want[i] {
				t.Fatalf("%s q=%v k=%d opts=%+v: neighbour %d at %g, want %g", tb.name, q, k, opts, i, nb.Distance, want[i])
			}
			if d := geom.DistanceToGeometry(q, nb.Row[tb.geom].(geom.Geometry)); d != nb.Distance {
				t.Fatalf("%s: neighbour %d reports %g, its row lies at %g", tb.name, i, nb.Distance, d)
			}
			fid := fmt.Sprint(nb.Row[0])
			if seen[fid] {
				t.Fatalf("%s q=%v k=%d: fid %s returned twice", tb.name, q, k, fid)
			}
			seen[fid] = true
		}
	}

	t.Run("uniform", func(t *testing.T) {
		tb := loadPoints(t, "uniform", uniform(600, extent))
		for i := 0; i < 15; i++ {
			check(t, tb, uniform(1, geom.NewMBR(115.95, 38.95, 116.55, 39.55))[0], 1+rng.Intn(80), randomOpts())
		}
		// q outside the data extent, and outside Root.
		check(t, tb, geom.Point{Lng: 100, Lat: 30}, 20, KNNOptions{})
		check(t, tb, geom.Point{Lng: 117, Lat: 40}, 20, KNNOptions{Root: extent})
		check(t, tb, geom.Point{Lng: 115.5, Lat: 39.25}, 35, KNNOptions{Root: geom.NewMBR(116.1, 39.1, 116.3, 39.3)})
	})
	t.Run("clustered", func(t *testing.T) {
		var pts []geom.Point
		for c := 0; c < 3; c++ {
			center := uniform(1, extent)[0]
			for i := 0; i < 200; i++ {
				pts = append(pts, geom.Point{Lng: center.Lng + rng.NormFloat64()*0.002, Lat: center.Lat + rng.NormFloat64()*0.002})
			}
		}
		tb := loadPoints(t, "clustered", pts)
		for i := 0; i < 15; i++ {
			check(t, tb, uniform(1, extent)[0], 1+rng.Intn(120), randomOpts())
		}
	})
	t.Run("duplicate locations", func(t *testing.T) {
		// 40 grid locations × 10 rows: the k-th distance is almost always
		// shared by several rows.
		var pts []geom.Point
		for i := 0; i < 400; i++ {
			loc := i % 40
			pts = append(pts, geom.Point{Lng: 116.2 + float64(loc%8)*0.01, Lat: 39.2 + float64(loc/8)*0.01})
		}
		tb := loadPoints(t, "dups", pts)
		for i := 0; i < 10; i++ {
			q := pts[rng.Intn(len(pts))]
			if i%2 == 1 {
				q = uniform(1, geom.NewMBR(116.19, 39.19, 116.28, 39.25))[0]
			}
			check(t, tb, q, 1+rng.Intn(60), randomOpts())
		}
	})
	t.Run("rows on square edges", func(t *testing.T) {
		// Rows on the edges and corners of every doubling round's square
		// around q0: the k-th neighbour lands exactly on a boundary.
		q0 := geom.Point{Lng: 116.25, Lat: 39.25}
		var pts []geom.Point
		for r := cellDeg / 2; r < 0.5; r *= 2 {
			for _, d := range [][2]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {-1, 1}, {1, -1}, {-1, -1}} {
				pts = append(pts, geom.Point{Lng: q0.Lng + d[0]*r, Lat: q0.Lat + d[1]*r})
			}
		}
		tb := loadPoints(t, "edges", pts)
		for k := 1; k <= len(pts)+1; k += 1 + rng.Intn(4) {
			check(t, tb, q0, k, KNNOptions{})
		}
	})
	t.Run("k against the row count", func(t *testing.T) {
		tb := loadPoints(t, "small", uniform(37, extent))
		q := uniform(1, extent)[0]
		for _, k := range []int{5, 36, 37, 50} {
			check(t, tb, q, k, KNNOptions{})
			check(t, tb, q, k, randomOpts())
		}
	})
	t.Run("trajectories", func(t *testing.T) {
		if err := e.CreateTableAs("", "traj", "trajectory"); err != nil {
			t.Fatal(err)
		}
		rows, err := workload.TrajectoryRows(workload.Trajectories(workload.TrajConfig{N: 150, PointsPerTraj: 20, Days: 30, Seed: seed}))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.BulkInsert("", "traj", rows); err != nil {
			t.Fatal(err)
		}
		tb := knnTable{name: "traj", rows: rows, geom: 1, tStart: 4, tEnd: 5}
		region := workload.Region
		for i := 0; i < 15; i++ {
			opts := KNNOptions{}
			if i%3 == 0 {
				opts.HasTime = true
				opts.TMin = rng.Int63n(25) * workload.Day
				opts.TMax = opts.TMin + rng.Int63n(5)*workload.Day
			}
			if i%4 == 0 {
				opts.Root = geom.NewMBR(116.3, 39.8, 116.5, 40)
			}
			q := geom.Point{Lng: region.MinLng - 0.05 + rng.Float64()*(region.Width()+0.1), Lat: region.MinLat - 0.05 + rng.Float64()*(region.Height()+0.1)}
			check(t, tb, q, 1+rng.Intn(60), opts)
		}
	})
}

// TestKNNScanShape pins fig13's k-NN shapes on counts rather than
// clocks: the scan tasks a query issues do not fall as k grows
// (fig13a/c), and on sparse data, a 20 % sample of Traj as at fig13b's
// first point, the square expansion takes at most
// ⌈log2(max(Root.W, Root.H)/g)⌉ + 2 rounds: doubling from g/2 covers
// Root, and a full heap adds one closing round. Each round is one range
// scan of a square inside Root, so the rounds are bounded through the
// store's task counter, allowing each round twice the tasks of a scan
// of Root (the squares measured here reach 1.5×). Scanning Algorithm 1
// one 0.01° cell at a time costs over 100 times that here.
func TestKNNScanShape(t *testing.T) {
	e := newTestEngine(t)
	root := workload.Region
	if err := e.CreateTable(&table.Desc{Name: "orders", Columns: workload.OrderSchema()}); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkInsert("", "orders", workload.OrderRows(workload.Orders(workload.OrderConfig{N: 4000, Seed: 1}))); err != nil {
		t.Fatal(err)
	}
	pts := workload.KNNPoints(workload.QueryConfig{Seed: 7}, 20)
	prev := int64(-1)
	for _, k := range []int{1, 10, 100, 250} {
		before := e.Store().Metrics().ScanTasks
		for _, q := range pts {
			if _, err := e.KNN(context.Background(), "", "orders", q, k, KNNOptions{Root: root}); err != nil {
				t.Fatal(err)
			}
		}
		tasks := e.Store().Metrics().ScanTasks - before
		if tasks < prev {
			t.Fatalf("k=%d: %d scan tasks, fewer than %d at the smaller k", k, tasks, prev)
		}
		prev = tasks
	}

	if err := e.CreateTableAs("", "traj", "trajectory"); err != nil {
		t.Fatal(err)
	}
	trajs := workload.Trajectories(workload.TrajConfig{N: 1500, PointsPerTraj: 20, Days: 30, Seed: 2})
	rows, err := workload.TrajectoryRows(trajs[:len(trajs)/5])
	if err != nil {
		t.Fatal(err)
	}
	if err := e.BulkInsert("", "traj", rows); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.OpenTable("", "traj")
	if err != nil {
		t.Fatal(err)
	}
	before := e.Store().Metrics().ScanTasks
	if err := tbl.ScanBatches(context.Background(), index.Query{Window: root}, nil, func(*exec.ColumnBatch) bool { return true }); err != nil {
		t.Fatal(err)
	}
	perRound := 2 * (e.Store().Metrics().ScanTasks - before)
	rounds := int64(math.Ceil(math.Log2(math.Max(root.Width(), root.Height())/cellDeg))) + 2
	for _, q := range pts {
		before := e.Store().Metrics().ScanTasks
		if _, err := e.KNN(context.Background(), "", "traj", q, 100, KNNOptions{Root: root}); err != nil {
			t.Fatal(err)
		}
		if tasks := e.Store().Metrics().ScanTasks - before; tasks > rounds*perRound {
			t.Fatalf("q=%v: %d scan tasks, more than %d rounds of %d", q, tasks, rounds, perRound)
		}
	}
}
