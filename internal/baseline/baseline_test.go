package baseline

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"just/internal/geom"
)

func randRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		p := geom.Point{Lng: 116 + rng.Float64(), Lat: 39 + rng.Float64()}
		recs[i] = Record{
			ID:           int64(i),
			Box:          p.MBR(),
			Start:        rng.Int63n(30 * 24 * 3600 * 1000),
			PayloadBytes: 100,
		}
		recs[i].End = recs[i].Start
	}
	return recs
}

func bruteSpatial(recs []Record, win geom.MBR) int {
	n := 0
	for _, r := range recs {
		if r.Box.Intersects(win) {
			n++
		}
	}
	return n
}

func bruteKNN(recs []Record, q geom.Point, k int) []int64 {
	sorted := append([]Record{}, recs...)
	sort.Slice(sorted, func(i, j int) bool {
		return geom.EuclideanDistance(q, sorted[i].Center()) < geom.EuclideanDistance(q, sorted[j].Center())
	})
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	ids := make([]int64, len(sorted))
	for i, r := range sorted {
		ids[i] = r.ID
	}
	return ids
}

func memSystems(t *testing.T) []System {
	t.Helper()
	dg, err := NewDiskGrid(DiskGridConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	dgst, err := NewDiskGridST(DiskGridConfig{Dir: t.TempDir()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return []System{
		NewMemRTree(0), NewMemGrid(0), NewMemQuad(0), NewMemList(0), dg, dgst,
	}
}

func TestSpatialRangeMatchesBruteForce(t *testing.T) {
	recs := randRecords(3000, 1)
	rng := rand.New(rand.NewSource(2))
	for _, sys := range memSystems(t) {
		if err := sys.Ingest(recs); err != nil {
			t.Fatalf("%s: ingest: %v", sys.Name(), err)
		}
		for trial := 0; trial < 10; trial++ {
			win := geom.NewMBR(
				116+rng.Float64()*0.8, 39+rng.Float64()*0.8,
				116+rng.Float64()*0.8, 39+rng.Float64()*0.8)
			want := bruteSpatial(recs, win)
			got, err := sys.SpatialRange(win)
			if err != nil {
				t.Fatalf("%s: %v", sys.Name(), err)
			}
			if got != want {
				t.Fatalf("%s: spatial range = %d, want %d (win %v)", sys.Name(), got, want, win)
			}
		}
		sys.Close()
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	recs := randRecords(2000, 3)
	rng := rand.New(rand.NewSource(4))
	dg, _ := NewDiskGrid(DiskGridConfig{Dir: t.TempDir()})
	systems := []System{NewMemRTree(0), NewMemGrid(0), NewMemQuad(0), dg}
	for _, sys := range systems {
		if err := sys.Ingest(recs); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			q := geom.Point{Lng: 116 + rng.Float64(), Lat: 39 + rng.Float64()}
			k := 20
			got, err := sys.KNN(q, k)
			if err != nil {
				t.Fatalf("%s: %v", sys.Name(), err)
			}
			if len(got) != k {
				t.Fatalf("%s: %d results", sys.Name(), len(got))
			}
			want := bruteKNN(recs, q, k)
			// Compare distances (ids may tie).
			for i := range got {
				gd := geom.EuclideanDistance(q, got[i].Center())
				var wd float64
				for _, r := range recs {
					if r.ID == want[i] {
						wd = geom.EuclideanDistance(q, r.Center())
					}
				}
				if gd-wd > 1e-12 && wd-gd > 1e-12 {
					t.Fatalf("%s: neighbor %d dist %g, want %g", sys.Name(), i, gd, wd)
				}
			}
		}
		sys.Close()
	}
}

func TestSTRangeDiskGridST(t *testing.T) {
	recs := randRecords(2000, 5)
	sys, err := NewDiskGridST(DiskGridConfig{Dir: t.TempDir()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Sort by time so ingest respects the future-only rule.
	sort.Slice(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
	if err := sys.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	win := geom.MBR{MinLng: 116.2, MinLat: 39.2, MaxLng: 116.8, MaxLat: 39.8}
	tmin := int64(5 * 24 * 3600 * 1000)
	tmax := int64(15 * 24 * 3600 * 1000)
	want := 0
	for _, r := range recs {
		if r.Box.Intersects(win) && r.Start <= tmax && r.End >= tmin {
			want++
		}
	}
	got, err := sys.STRange(win, tmin, tmax)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("STRange = %d, want %d", got, want)
	}
}

func TestHistoricalInsertRejected(t *testing.T) {
	sys, _ := NewDiskGridST(DiskGridConfig{Dir: t.TempDir()}, 0)
	newRec := Record{ID: 1, Box: geom.Point{Lng: 116, Lat: 39}.MBR(), Start: 1000000, End: 1000000}
	if err := sys.Ingest([]Record{newRec}); err != nil {
		t.Fatal(err)
	}
	old := Record{ID: 2, Box: geom.Point{Lng: 116, Lat: 39}.MBR(), Start: 500, End: 500}
	if err := sys.Ingest([]Record{old}); !errors.Is(err, ErrHistoricalUpdate) {
		t.Fatalf("err = %v, want ErrHistoricalUpdate", err)
	}
}

func TestMemoryBudgetOOM(t *testing.T) {
	recs := randRecords(1000, 6)
	// 1000 recs x ~164 bytes each >> 50 KB budget.
	for _, sys := range []System{NewMemRTree(50 << 10), NewMemGrid(50 << 10), NewMemQuad(50 << 10)} {
		err := sys.Ingest(recs)
		if !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("%s: err = %v, want ErrOutOfMemory", sys.Name(), err)
		}
	}
	// Generous budget works.
	big := NewMemRTree(1 << 30)
	if err := big.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	if big.MemoryBytes() == 0 {
		t.Fatal("memory accounting is zero")
	}
}

func TestUnsupportedQueries(t *testing.T) {
	recs := randRecords(100, 7)
	win := geom.WorldMBR
	rt := NewMemRTree(0)
	rt.Ingest(recs)
	if _, err := rt.STRange(win, 0, 1); !errors.Is(err, ErrUnsupported) {
		t.Fatal("MemRTree should not support ST")
	}
	ml := NewMemList(0)
	ml.Ingest(recs)
	if _, err := ml.KNN(geom.Point{}, 5); !errors.Is(err, ErrUnsupported) {
		t.Fatal("MemList should not support kNN")
	}
}

func TestNonPointRecords(t *testing.T) {
	// Box records (trajectory MBRs) must be found by windows that miss
	// their centers.
	recs := []Record{{
		ID:  1,
		Box: geom.MBR{MinLng: 116.0, MinLat: 39.0, MaxLng: 116.5, MaxLat: 39.5},
	}}
	win := geom.MBR{MinLng: 116.4, MinLat: 39.4, MaxLng: 116.45, MaxLat: 39.45} // far from center
	dg, _ := NewDiskGrid(DiskGridConfig{Dir: t.TempDir()})
	for _, sys := range []System{NewMemRTree(0), NewMemGrid(0), NewMemQuad(0), NewMemList(0), dg} {
		if err := sys.Ingest(recs); err != nil {
			t.Fatal(err)
		}
		got, err := sys.SpatialRange(win)
		if err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Fatalf("%s: box record missed", sys.Name())
		}
	}
}

func TestDiskGridPersistsToDisk(t *testing.T) {
	dg, _ := NewDiskGrid(DiskGridConfig{Dir: t.TempDir()})
	recs := randRecords(500, 8)
	if err := dg.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	if dg.DiskBytes() < 500*64 {
		t.Fatalf("disk bytes = %d", dg.DiskBytes())
	}
	if dg.MemoryBytes() > 1<<20 {
		t.Fatalf("disk system holding %d bytes in memory", dg.MemoryBytes())
	}
}

// TestIngestWriteErrorCountsNothing: a partition file that cannot take
// its records fails the ingest, and the counts do not claim them.
func TestIngestWriteErrorCountsNothing(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	dir := t.TempDir()
	dg, err := NewDiskGrid(DiskGridConfig{Dir: dir, Cells: 2})
	if err != nil {
		t.Fatal(err)
	}
	recs := randRecords(400, 12)
	if err := dg.Ingest(recs[:200]); err != nil {
		t.Fatal(err)
	}
	disk := dg.DiskBytes()
	part := dg.cellPath(0)
	if err := os.Remove(part); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", part); err != nil {
		t.Fatal(err)
	}
	if err := dg.Ingest(recs[200:]); err == nil {
		t.Fatal("ingest into a full partition file returned nil")
	}
	if dg.DiskBytes() != disk {
		t.Fatalf("DiskBytes %d after the failed ingest, want %d", dg.DiskBytes(), disk)
	}
	total := 0
	for _, n := range dg.counts {
		total += n
	}
	if total != 200 {
		t.Fatalf("counts hold %d records after the failed ingest, want 200", total)
	}
}

func TestRTreeStructure(t *testing.T) {
	recs := randRecords(1000, 9)
	tree := buildRTree(recs)
	if tree.root == nil {
		t.Fatal("no root")
	}
	// Every record must be reachable and inside its ancestors' boxes.
	n := 0
	var walk func(node *rtreeNode)
	walk = func(node *rtreeNode) {
		if node.leaf != nil {
			for _, r := range node.leaf {
				if !node.box.ContainsMBR(r.Box) {
					t.Fatal("leaf box does not contain record")
				}
				n++
			}
			return
		}
		for _, c := range node.children {
			if !node.box.ContainsMBR(c.box) {
				t.Fatal("parent box does not contain child")
			}
			walk(c)
		}
	}
	walk(tree.root)
	if n != 1000 {
		t.Fatalf("tree holds %d records, want 1000", n)
	}
}

func TestCountersChargeJobsAndBytes(t *testing.T) {
	recs := randRecords(500, 10)
	dg, err := NewDiskGrid(DiskGridConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	quad := NewMemQuad(0)
	for _, sys := range []System{dg, quad} {
		if err := sys.Ingest(recs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dg.SpatialRange(geom.WorldMBR); err != nil {
		t.Fatal(err)
	}
	if jobs, bytes := dg.Counters(); jobs != 1 || bytes != dg.DiskBytes() {
		t.Fatalf("DiskGrid full scan: jobs %d bytes %d, want 1 and %d", jobs, bytes, dg.DiskBytes())
	}
	if _, err := quad.KNN(geom.Point{Lng: 116.5, Lat: 39.5}, 5); err != nil {
		t.Fatal(err)
	}
	if jobs, bytes := quad.Counters(); jobs != 2 || bytes != 0 {
		t.Fatalf("MemQuad k-NN: jobs %d bytes %d, want 2 and 0", jobs, bytes)
	}
}

func TestTruncatedPartitionIsAnError(t *testing.T) {
	// Each record is 64 header bytes plus its 100 payload bytes: cut the
	// last one inside its header, then inside its payload.
	for _, cut := range []int64{150, 10} {
		dir := t.TempDir()
		dg, err := NewDiskGrid(DiskGridConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := dg.Ingest(randRecords(500, 11)); err != nil {
			t.Fatal(err)
		}
		parts, err := filepath.Glob(filepath.Join(dir, "part-*.bin"))
		if err != nil || len(parts) == 0 {
			t.Fatalf("partition files: %v %v", parts, err)
		}
		st, err := os.Stat(parts[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(parts[0], st.Size()-cut); err != nil {
			t.Fatal(err)
		}
		if n, err := dg.SpatialRange(geom.WorldMBR); err == nil {
			t.Fatalf("cut %d bytes: SpatialRange = %d, nil error", cut, n)
		}
	}
}
