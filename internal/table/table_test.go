package table

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/kv"
)

func TestCatalogCRUD(t *testing.T) {
	dir := t.TempDir()
	cluster, err := kv.OpenCluster(dir, kv.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog(cluster, IndexConfig{})
	d := &Desc{
		Name: "orders", User: "alice", Kind: KindCommon,
		Columns:   []Column{{Name: "fid", Type: exec.TypeInt, PrimaryKey: true}},
		Indexes:   []IndexDesc{{Strategy: "attr", ID: 0}},
		FidColumn: "fid",
	}
	if err := c.Create(d); err != nil {
		t.Fatal(err)
	}
	if d.TableID == 0 {
		t.Fatal("TableID not assigned")
	}
	if err := c.Create(&Desc{Name: "orders", User: "alice", Columns: d.Columns}); err == nil {
		t.Fatal("duplicate create should fail")
	}
	// Same name, different user is fine (namespaces).
	bob := *d
	bob.User = "bob"
	if err := c.Create(&bob); err != nil {
		t.Fatal(err)
	}
	got, err := c.Open("alice", "orders")
	if err != nil || got.Desc.User != "alice" {
		t.Fatalf("Open = %v, %v", got, err)
	}
	if names, err := c.List("alice"); err != nil || len(names) != 1 || names[0] != "orders" {
		t.Fatalf("List = %v, %v", names, err)
	}
	// Persistence across reopen of the store.
	if err := cluster.Close(); err != nil {
		t.Fatal(err)
	}
	if cluster, err = kv.OpenCluster(dir, kv.ClusterOptions{}); err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c2 := NewCatalog(cluster, IndexConfig{})
	if _, err := c2.Open("bob", "orders"); err != nil {
		t.Fatalf("reopened catalog lost table: %v", err)
	}
	if err := c2.Drop(bg, "alice", "orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Open("alice", "orders"); err == nil {
		t.Fatal("dropped table still present")
	}
	// Table ids are never reused, also after a reopen.
	d3 := *d
	if err := c2.Create(&d3); err != nil || d3.TableID != d.TableID+2 {
		t.Fatalf("recreated table id = %d (%v), want %d", d3.TableID, err, d.TableID+2)
	}
}

func TestCatalogValidation(t *testing.T) {
	cluster, err := kv.OpenCluster(t.TempDir(), kv.ClusterOptions{Options: kv.Options{DisableWAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c := NewCatalog(cluster, IndexConfig{})
	bad := []*Desc{
		{Name: "1badname", Columns: []Column{{Name: "a", Type: exec.TypeInt}}},
		{Name: "ok", Columns: nil},
		{Name: "ok", Columns: []Column{{Name: "dup", Type: exec.TypeInt}, {Name: "dup", Type: exec.TypeInt}}},
		{Name: "ok", Columns: []Column{{Name: "semi;colon", Type: exec.TypeInt}}},
	}
	for i, d := range bad {
		if err := c.Create(d); err == nil {
			t.Errorf("case %d: create should fail", i)
		}
	}
}

// TestCreateRejectsWhatOpenRejects: a descriptor Open refuses (here,
// indexes without attr) fails at CREATE and does not take its name, so
// a valid CREATE of the same name succeeds and opens.
func TestCreateRejectsWhatOpenRejects(t *testing.T) {
	cluster, err := kv.OpenCluster(t.TempDir(), kv.ClusterOptions{Options: kv.Options{DisableWAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c := NewCatalog(cluster, IndexConfig{})
	desc := func(idx ...IndexDesc) *Desc {
		return &Desc{
			Name: "pts", Kind: KindCommon,
			Columns:   []Column{{Name: "fid", Type: exec.TypeInt, PrimaryKey: true}, {Name: "geom", Type: exec.TypeGeometry}},
			Indexes:   idx,
			FidColumn: "fid", GeomColumn: "geom",
		}
	}
	for _, bad := range []*Desc{
		desc(IndexDesc{Strategy: "z2", ID: 1}),
		desc(IndexDesc{Strategy: "attr", ID: 0}, IndexDesc{Strategy: "nope", ID: 1}),
	} {
		if err := c.Create(bad); err == nil {
			t.Fatalf("CREATE with indexes %v succeeded", bad.Indexes)
		}
	}
	if err := c.Create(desc(IndexDesc{Strategy: "attr", ID: 0}, IndexDesc{Strategy: "z2", ID: 1})); err != nil {
		t.Fatalf("valid CREATE after rejected ones: %v", err)
	}
	if _, err := c.Open("", "pts"); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogStats checks the span a table keeps in its meta rows:
// widened by each batch, and read back by a fresh Open, which then
// plans every row.
func TestCatalogStats(t *testing.T) {
	tbl, cluster := newTestTable(t)
	batch := func(fid0, n int, t0, t1 int64) []exec.Row {
		var rows []exec.Row
		for i := 0; i < n; i++ {
			ts := t0 + (t1-t0)*int64(i)/int64(n-1)
			rows = append(rows, exec.Row{int64(fid0 + i), ts, geom.Point{Lng: 116, Lat: 39}, "x"})
		}
		return rows
	}
	if err := insertRows(tbl, batch(0, 10, 100, 200)...); err != nil {
		t.Fatal(err)
	}
	if err := insertRows(tbl, batch(10, 5, 50, 150)...); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(tbl.Desc, cluster, IndexConfig{Shards: 2, Period: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*Table{tbl, reopened} {
		n := 0
		q := index.Query{Window: geom.WorldMBR, HasTime: true, TMin: 50, TMax: 200}
		err := got.ScanQuery(bg, q, func(exec.Row) bool { n++; return true })
		if span := got.TimeSpan(); err != nil || n != 15 || span.Min != 50 || span.Max != 200 {
			t.Fatalf("%d rows (err %v) over %+v, want 15 over [50, 200]", n, err, span)
		}
	}
}

func testColumns() []Column {
	return []Column{
		{Name: "fid", Type: exec.TypeInt, PrimaryKey: true},
		{Name: "name", Type: exec.TypeString},
		{Name: "time", Type: exec.TypeTime},
		{Name: "geom", Type: exec.TypeGeometry, SRID: 4326},
		{Name: "score", Type: exec.TypeFloat},
		{Name: "flag", Type: exec.TypeBool},
		{Name: "payload", Type: exec.TypeBytes},
		{Name: "gps", Type: exec.TypeSTSeries, Compress: "gzip"},
		{Name: "series", Type: exec.TypeTSeries},
	}
}

func testRow(i int) exec.Row {
	return exec.Row{
		int64(i),
		fmt.Sprintf("rec-%d", i),
		int64(i * 1000),
		geom.Point{Lng: float64(i%360) - 180, Lat: float64(i%180) - 90},
		float64(i) / 3,
		i%2 == 0,
		[]byte{byte(i), byte(i >> 8)},
		[]geom.TPoint{{Point: geom.Point{Lng: 1, Lat: 2}, T: int64(i)}, {Point: geom.Point{Lng: 1.1, Lat: 2.1}, T: int64(i + 60)}},
		[]float64{1.5, 2.5, float64(i)},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	codec := NewCodec(testColumns())
	for _, i := range []int{0, 1, 42, 9999} {
		row := testRow(i)
		data, err := codec.Encode(row)
		if err != nil {
			t.Fatal(err)
		}
		back, err := codec.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if back[0] != row[0] || back[1] != row[1] || back[2] != row[2] {
			t.Fatalf("scalar mismatch: %v vs %v", back[:3], row[:3])
		}
		if back[4] != row[4] || back[5] != row[5] {
			t.Fatalf("float/bool mismatch")
		}
		gp := back[3].(geom.Point)
		if gp != row[3].(geom.Point) {
			t.Fatalf("geometry mismatch: %v vs %v", gp, row[3])
		}
		pts := back[7].([]geom.TPoint)
		if len(pts) != 2 || pts[1].T != int64(i+60) || pts[0].Lng != 1 {
			t.Fatalf("st_series mismatch: %v", pts)
		}
		ser := back[8].([]float64)
		if len(ser) != 3 || ser[2] != float64(i) {
			t.Fatalf("t_series mismatch: %v", ser)
		}
	}
}

func TestCodecNulls(t *testing.T) {
	codec := NewCodec(testColumns())
	row := testRow(7)
	row[1] = nil
	row[3] = nil
	row[7] = nil
	data, err := codec.Encode(row)
	if err != nil {
		t.Fatal(err)
	}
	back, err := codec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back[1] != nil || back[3] != nil || back[7] != nil {
		t.Fatalf("nulls not preserved: %v", back)
	}
	if back[0] != int64(7) {
		t.Fatal("non-null fields lost")
	}
}

func TestCodecGeometryKinds(t *testing.T) {
	codec := NewCodec([]Column{{Name: "g", Type: exec.TypeGeometry}})
	geoms := []geom.Geometry{
		geom.Point{Lng: 1.5, Lat: -2.5},
		&geom.LineString{Points: []geom.Point{{Lng: 0, Lat: 0}, {Lng: 1, Lat: 1}, {Lng: 2, Lat: 0}}},
		&geom.Polygon{Outer: []geom.Point{{Lng: 0, Lat: 0}, {Lng: 4, Lat: 0}, {Lng: 4, Lat: 4}}, Holes: [][]geom.Point{{{Lng: 1, Lat: 1}, {Lng: 2, Lat: 1}, {Lng: 2, Lat: 2}}}},
		&geom.MultiPoint{Points: []geom.Point{{Lng: 5, Lat: 6}, {Lng: 7, Lat: 8}}},
	}
	for _, g := range geoms {
		data, err := codec.Encode(exec.Row{g})
		if err != nil {
			t.Fatal(err)
		}
		back, err := codec.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		bg := back[0].(geom.Geometry)
		if bg.WKT() != g.WKT() {
			t.Fatalf("geometry round trip: %s vs %s", bg.WKT(), g.WKT())
		}
	}
}

func TestCodecCompressionShrinksGPSLists(t *testing.T) {
	long := make([]geom.TPoint, 500)
	tms := int64(0)
	for i := range long {
		tms += 3000
		long[i] = geom.TPoint{Point: geom.Point{Lng: 116.3 + float64(i)*1e-5, Lat: 39.9}, T: tms}
	}
	plain := NewCodec([]Column{{Name: "gps", Type: exec.TypeSTSeries}})
	zipped := NewCodec([]Column{{Name: "gps", Type: exec.TypeSTSeries, Compress: "gzip"}})
	p, err := plain.Encode(exec.Row{long})
	if err != nil {
		t.Fatal(err)
	}
	z, err := zipped.Encode(exec.Row{long})
	if err != nil {
		t.Fatal(err)
	}
	if len(z) >= len(p)*2/3 {
		t.Fatalf("compressed %d not much smaller than plain %d", len(z), len(p))
	}
	back, err := zipped.Decode(z)
	if err != nil {
		t.Fatal(err)
	}
	pts := back[0].([]geom.TPoint)
	if len(pts) != 500 || pts[499].T != tms {
		t.Fatal("compressed round trip corrupt")
	}
}

func TestCodecZlib(t *testing.T) {
	codec := NewCodec([]Column{{Name: "s", Type: exec.TypeString, Compress: "zip"}})
	data, err := codec.Encode(exec.Row{"hello hello hello hello"})
	if err != nil {
		t.Fatal(err)
	}
	back, err := codec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back[0] != "hello hello hello hello" {
		t.Fatalf("zlib round trip = %v", back[0])
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	codec := NewCodec([]Column{
		{Name: "i", Type: exec.TypeInt},
		{Name: "f", Type: exec.TypeFloat},
		{Name: "s", Type: exec.TypeString},
	})
	f := func(i int64, fl float64, s string) bool {
		data, err := codec.Encode(exec.Row{i, fl, s})
		if err != nil {
			return false
		}
		back, err := codec.Decode(data)
		if err != nil {
			return false
		}
		return back[0] == i && (back[1] == fl || fl != fl) && back[2] == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func newTestTable(t *testing.T) (*Table, *kv.Cluster) {
	t.Helper()
	cluster, err := kv.OpenCluster(t.TempDir(), kv.ClusterOptions{
		Options: kv.Options{DisableWAL: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	cat := NewCatalog(cluster, IndexConfig{})
	d := &Desc{
		Name: "points", Kind: KindCommon,
		Columns: []Column{
			{Name: "fid", Type: exec.TypeInt, PrimaryKey: true},
			{Name: "time", Type: exec.TypeTime},
			{Name: "geom", Type: exec.TypeGeometry},
			{Name: "name", Type: exec.TypeString},
		},
		Indexes: []IndexDesc{
			{Strategy: "attr", ID: 0},
			{Strategy: "z2", ID: 1},
			{Strategy: "z2t", ID: 2},
		},
		FidColumn: "fid", GeomColumn: "geom", TimeColumn: "time",
	}
	if err := cat.Create(d); err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(d, cluster, IndexConfig{Shards: 2, Period: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return tbl, cluster
}

const hourMS = int64(3600 * 1000)

func TestTableInsertGetDelete(t *testing.T) {
	tbl, cluster := newTestTable(t)
	row := exec.Row{int64(1), int64(5 * hourMS), geom.Point{Lng: 116.4, Lat: 39.9}, "bj"}
	if err := insertRows(tbl, row); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.GetCtx(bg, int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if got[3] != "bj" {
		t.Fatalf("got = %v", got)
	}
	// DropData deletes every index copy of every row in one WriteBatch.
	if err := tbl.DropData(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.GetCtx(bg, int64(1)); err == nil {
		t.Fatal("deleted row still readable")
	}
	assertOnlyNextIDLeft(t, cluster)
}

// assertOnlyNextIDLeft checks that DropData left nothing in the store
// but the catalog's next table id: no row, meta row or descriptor.
func assertOnlyNextIDLeft(t *testing.T, cluster kv.Store) {
	t.Helper()
	var left []string
	err := kv.ScanRange(bg, cluster, kv.KeyRange{}, func(k, v []byte) bool {
		left = append(left, string(k))
		return true
	})
	if err != nil || len(left) != 1 || left[0] != string(nextIDKey) {
		t.Fatalf("keys left after DropData = %q (err %v), want only %q", left, err, nextIDKey)
	}
}

func TestTableScanQuery(t *testing.T) {
	tbl, _ := newTestTable(t)
	// Cluster of points near Beijing at hour i; others far away.
	for i := 0; i < 200; i++ {
		lng, lat := 116.40+float64(i%10)*0.001, 39.90+float64(i/10%10)*0.001
		if i%4 == 0 {
			lng, lat = -70.0, -30.0 // far away
		}
		row := exec.Row{int64(i), int64(i) * hourMS / 10, geom.Point{Lng: lng, Lat: lat}, "x"}
		if err := insertRows(tbl, row); err != nil {
			t.Fatal(err)
		}
	}
	q := index.Query{
		Window:  geom.NewMBR(116.39, 39.89, 116.42, 39.92),
		HasTime: true,
		TMin:    0, TMax: 200 * hourMS,
	}
	var got []int64
	if err := tbl.ScanQuery(context.Background(), q, func(r exec.Row) bool {
		got = append(got, r[0].(int64))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 150 {
		t.Fatalf("scan found %d rows, want 150", len(got))
	}
	for _, id := range got {
		if id%4 == 0 {
			t.Fatalf("far-away row %d returned", id)
		}
	}
	// Narrow time filter: first 10 hours only.
	q.TMax = 10*hourMS - 1
	got = got[:0]
	if err := tbl.ScanQuery(context.Background(), q, func(r exec.Row) bool {
		got = append(got, r[0].(int64))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range got {
		if id >= 100 {
			t.Fatalf("row %d outside time window returned", id)
		}
	}
}

func TestTableUpdateInPlace(t *testing.T) {
	tbl, _ := newTestTable(t)
	row := exec.Row{int64(9), int64(0), geom.Point{Lng: 10, Lat: 10}, "v1"}
	insertRows(tbl, row)
	row2 := exec.Row{int64(9), int64(0), geom.Point{Lng: 10, Lat: 10}, "v2"}
	insertRows(tbl, row2)
	got, err := tbl.GetCtx(bg, int64(9))
	if err != nil || got[3] != "v2" {
		t.Fatalf("update: %v, %v", got, err)
	}
	// Spatial scan must see exactly one copy.
	n := 0
	tbl.ScanQuery(context.Background(), index.Query{Window: geom.NewMBR(9, 9, 11, 11)}, func(r exec.Row) bool {
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("scan sees %d copies after update, want 1", n)
	}
}

func TestTableUpdateMovesRecord(t *testing.T) {
	// Updating a record with a new position must remove the stale index
	// entry: the old location must stop matching (the taxi-dispatch
	// example moves cabs).
	tbl, _ := newTestTable(t)
	insertRows(tbl, exec.Row{int64(7), int64(0), geom.Point{Lng: 10, Lat: 10}, "old-pos"})
	insertRows(tbl, exec.Row{int64(7), int64(0), geom.Point{Lng: 50, Lat: 50}, "new-pos"})

	count := func(win geom.MBR) int {
		n := 0
		tbl.ScanQuery(context.Background(), index.Query{Window: win}, func(exec.Row) bool { n++; return true })
		return n
	}
	if n := count(geom.NewMBR(9, 9, 11, 11)); n != 0 {
		t.Fatalf("old location still matches %d rows", n)
	}
	if n := count(geom.NewMBR(49, 49, 51, 51)); n != 1 {
		t.Fatalf("new location matches %d rows, want 1", n)
	}
	// Moving in time matters too (Z2T period changes).
	insertRows(tbl, exec.Row{int64(7), 40 * 24 * hourMS, geom.Point{Lng: 50, Lat: 50}, "new-time"})
	n := 0
	tbl.ScanQuery(context.Background(), index.Query{Window: geom.NewMBR(49, 49, 51, 51), HasTime: true, TMin: 0, TMax: hourMS},
		func(exec.Row) bool { n++; return true })
	if n != 0 {
		t.Fatalf("old time period still matches %d rows", n)
	}
}

func TestTableFullScan(t *testing.T) {
	tbl, _ := newTestTable(t)
	for i := 0; i < 50; i++ {
		insertRows(tbl, exec.Row{int64(i), int64(0), geom.Point{Lng: float64(i), Lat: 0}, "x"})
	}
	n := 0
	if err := tbl.FullScan(context.Background(), func(r exec.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("full scan = %d rows", n)
	}
}

func TestTableDropData(t *testing.T) {
	tbl, cluster := newTestTable(t)
	for i := 0; i < 20; i++ {
		insertRows(tbl, exec.Row{int64(i), int64(0), geom.Point{Lng: 1, Lat: 1}, "x"})
	}
	if err := tbl.DropData(bg); err != nil {
		t.Fatal(err)
	}
	assertOnlyNextIDLeft(t, cluster)
}

func TestTrajectoryPluginRoundTrip(t *testing.T) {
	spec, ok := LookupPlugin("trajectory")
	if !ok {
		t.Fatal("trajectory plugin not registered")
	}
	if len(spec.Indexes) != 3 {
		t.Fatalf("trajectory indexes = %v", spec.Indexes)
	}
	traj := &Trajectory{
		ID: "t-1",
		Points: []geom.TPoint{
			{Point: geom.Point{Lng: 116.40, Lat: 39.90}, T: 1000},
			{Point: geom.Point{Lng: 116.41, Lat: 39.91}, T: 2000},
			{Point: geom.Point{Lng: 116.42, Lat: 39.90}, T: 3500},
		},
	}
	row, err := traj.Row()
	if err != nil {
		t.Fatal(err)
	}
	if row[4] != int64(1000) || row[5] != int64(3500) {
		t.Fatalf("time span = %v %v", row[4], row[5])
	}
	back, err := TrajectoryFromRow(row)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != "t-1" || len(back.Points) != 3 {
		t.Fatalf("round trip = %+v", back)
	}
	mbr := back.MBR()
	if mbr.MinLng != 116.40 || mbr.MaxLng != 116.42 {
		t.Fatalf("mbr = %v", mbr)
	}
}

func TestTrajectoryTableEndToEnd(t *testing.T) {
	cluster, err := kv.OpenCluster(t.TempDir(), kv.ClusterOptions{Options: kv.Options{DisableWAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	d, err := NewDescFromPlugin("", "traj", "trajectory")
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(cluster, IndexConfig{})
	cat.Create(d)
	tbl, err := Open(d, cluster, IndexConfig{Period: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		baseLng := 116.0 + rng.Float64()
		baseLat := 39.5 + rng.Float64()
		start := int64(rng.Intn(100)) * hourMS
		var pts []geom.TPoint
		for j := 0; j < 20; j++ {
			pts = append(pts, geom.TPoint{
				Point: geom.Point{Lng: baseLng + float64(j)*1e-4, Lat: baseLat},
				T:     start + int64(j)*30000,
			})
		}
		traj := &Trajectory{ID: fmt.Sprintf("t-%03d", i), Points: pts}
		row, _ := traj.Row()
		if err := insertRows(tbl, row); err != nil {
			t.Fatal(err)
		}
	}
	// Query a window covering everything: all 100 back.
	n := 0
	err = tbl.ScanQuery(context.Background(), index.Query{
		Window: geom.WorldMBR, HasTime: true, TMin: 0, TMax: 100 * hourMS,
	}, func(r exec.Row) bool { n++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("world query = %d, want 100", n)
	}
	// Spatial-only query (XZ2 index path).
	n = 0
	err = tbl.ScanQuery(context.Background(), index.Query{Window: geom.NewMBR(115, 39, 118, 41)},
		func(r exec.Row) bool { n++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("spatial query = %d, want 100", n)
	}
}

func TestViews(t *testing.T) {
	ctx := exec.NewContext(0)
	vs := NewViews(time.Hour)
	now := time.Unix(0, 0)
	vs.now = func() time.Time { return now }

	df, _ := exec.NewDataFrame(ctx, exec.NewSchema(exec.Field{Name: "v", Type: exec.TypeInt}), []exec.Row{{int64(1)}})
	vs.Put("alice", "v1", df)
	got, err := vs.Get("alice", "v1")
	if err != nil || got.Frame.Count() != 1 {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if names := vs.List("alice"); len(names) != 1 {
		t.Fatalf("List = %v", names)
	}
	if _, err := vs.Get("bob", "v1"); err == nil {
		t.Fatal("cross-user view access should fail")
	}
	// Idle past TTL: evicted.
	now = now.Add(2 * time.Hour)
	if _, err := vs.Get("alice", "v1"); err == nil {
		t.Fatal("expired view should be evicted")
	}
	if ctx.MemUsed() != 0 {
		t.Fatalf("eviction leaked %d bytes", ctx.MemUsed())
	}
}

func TestViewDropReleasesMemory(t *testing.T) {
	ctx := exec.NewContext(0)
	vs := NewViews(0)
	df, _ := exec.NewDataFrame(ctx, exec.NewSchema(exec.Field{Name: "v", Type: exec.TypeInt}), []exec.Row{{int64(1)}, {int64(2)}})
	vs.Put("", "v", df)
	if err := vs.Drop("", "v"); err != nil {
		t.Fatal(err)
	}
	if ctx.MemUsed() != 0 {
		t.Fatalf("drop leaked %d bytes", ctx.MemUsed())
	}
	if err := vs.Drop("", "v"); err == nil {
		t.Fatal("double drop should fail")
	}
}
