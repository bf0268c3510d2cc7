package sql

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"just/internal/core"
	"just/internal/exec"
	"just/internal/geom"
	"just/internal/kv"
	"just/internal/table"
)

const hourMS = int64(3600 * 1000)

func newTestSession(t *testing.T) *Session {
	t.Helper()
	e, err := core.Open(core.Config{
		Dir:     t.TempDir(),
		Cluster: kv.ClusterOptions{Options: kv.Options{DisableWAL: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return NewSession(e, "")
}

func mustExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Execute(sql)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

// --- Parser tests ---

func TestParseCreateTable(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE pts (
		fid integer:primary key,
		name string,
		time date,
		geom point:srid=4326,
		gpsList st_series:compress=gzip|zip
	) USERDATA {'geomesa.indices.enabled':'z3'}`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if ct.Name != "pts" || len(ct.Columns) != 5 {
		t.Fatalf("parsed: %+v", ct)
	}
	if ct.Columns[0].Mods[0] != "primary key" {
		t.Fatalf("mods = %v", ct.Columns[0].Mods)
	}
	if ct.Columns[3].Mods[0] != "srid=4326" {
		t.Fatalf("mods = %v", ct.Columns[3].Mods)
	}
	if ct.Columns[4].Mods[0] != "compress=gzip" {
		t.Fatalf("mods = %v", ct.Columns[4].Mods)
	}
	if ct.UserData["geomesa.indices.enabled"] != "z3" {
		t.Fatalf("userdata = %v", ct.UserData)
	}
}

func TestParseCreateTableAsPlugin(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE traj AS trajectory`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if ct.Plugin != "trajectory" {
		t.Fatalf("plugin = %q", ct.Plugin)
	}
}

func TestParseSelectShapes(t *testing.T) {
	good := []string{
		`SELECT * FROM t`,
		`SELECT a, b AS c FROM t WHERE a = 1`,
		`SELECT a FROM t WHERE geom WITHIN st_makeMBR(1,2,3,4) AND time BETWEEN 5 AND 6`,
		`SELECT a FROM (SELECT * FROM t) sub WHERE a > 2 ORDER BY b DESC LIMIT 10`,
		`SELECT count(*), sum(x) FROM t GROUP BY g`,
		`SELECT fid FROM t WHERE geom IN st_KNN(st_makePoint(116.4, 39.9), 50)`,
		`SELECT st_WGS84ToGCJ02(lng, lat) FROM t`,
		`SELECT a FROM t WHERE NOT (a = 1 OR b = 2)`,
	}
	for _, q := range good {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
	bad := []string{
		``, `SELECT`, `SELECT FROM t`, `SELECT a FROM`, `SELECT a FROM t WHERE`,
		`CREATE`, `DROP`, `SELECT a FROM t LIMIT x`, `SELECT a b c FROM t`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt, err := Parse(`SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3`)
	if err != nil {
		t.Fatal(err)
	}
	where := stmt.(*SelectStmt).Where.(*BinaryExpr)
	if where.Op != "OR" {
		t.Fatalf("top op = %s, want OR (AND binds tighter)", where.Op)
	}
	stmt2, _ := Parse(`SELECT a FROM t WHERE x = 1 + 2 * 3`)
	cmp := stmt2.(*SelectStmt).Where.(*BinaryExpr)
	sum := cmp.R.(*BinaryExpr)
	if sum.Op != "+" {
		t.Fatalf("rhs op = %s", sum.Op)
	}
	if sum.R.(*BinaryExpr).Op != "*" {
		t.Fatal("* should bind tighter than +")
	}
}

func TestParseInsert(t *testing.T) {
	stmt, err := Parse(`INSERT INTO t VALUES (1, 'a', st_makePoint(1,2)), (2, 'b', st_makePoint(3,4))`)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Rows[0]) != 3 {
		t.Fatalf("insert = %+v", ins)
	}
}

func TestParseLoad(t *testing.T) {
	stmt, err := Parse(`LOAD hive:db.orders TO geomesa:orders CONFIG {
		'fid': 'trajId',
		'time': 'long_to_date_ms(timestamp)',
		'geom': 'lng_lat_to_point(lng, lat)'
	} FILTER 'trajId = "1068" limit 10'`)
	if err != nil {
		t.Fatal(err)
	}
	ld := stmt.(*LoadStmt)
	if ld.SrcKind != "hive" || ld.Src != "db.orders" || ld.Dst != "orders" {
		t.Fatalf("load = %+v", ld)
	}
	if len(ld.Config) != 3 || ld.Filter == "" {
		t.Fatalf("config = %v filter = %q", ld.Config, ld.Filter)
	}
}

// --- Optimizer tests ---

func TestConstantFolding(t *testing.T) {
	e, err := ParseExpr(`52 * 9`)
	if err != nil {
		t.Fatal(err)
	}
	folded := foldExpr(e)
	lit, ok := folded.(*Literal)
	if !ok || lit.Val != int64(468) {
		t.Fatalf("folded = %v", exprString(folded))
	}
	e2, _ := ParseExpr(`st_makeMBR(1, 2, 3, 4)`)
	folded2 := foldExpr(e2)
	lit2, ok := folded2.(*Literal)
	if !ok {
		t.Fatalf("MBR not folded: %v", exprString(folded2))
	}
	if _, ok := lit2.Val.(geom.MBR); !ok {
		t.Fatalf("folded value = %T", lit2.Val)
	}
}

func setupPointTable(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE pts (
		fid integer:primary key,
		name string,
		time date,
		geom point:srid=4326
	)`)
	var rows []string
	for i := 0; i < 200; i++ {
		rows = append(rows, fmt.Sprintf("(%d, 'r%d', %d, st_makePoint(%g, %g))",
			i, i, int64(i)*hourMS/4, 116.0+float64(i%20)*0.01, 39.0+float64(i/20)*0.01))
	}
	mustExec(t, s, "INSERT INTO pts VALUES "+strings.Join(rows, ", "))
}

func TestPushdownPlanShape(t *testing.T) {
	s := newTestSession(t)
	setupPointTable(t, s)
	res := mustExec(t, s, `SELECT name, geom
		FROM (SELECT * FROM pts) t
		WHERE fid = 52 * 9 AND geom WITHIN st_makeMBR(116.0, 39.0, 116.1, 39.1)
		ORDER BY time`)
	ps := PlanString(res.Plan)
	if !strings.Contains(ps, "window=") {
		t.Fatalf("window not pushed down:\n%s", ps)
	}
	if !strings.Contains(ps, "fid=468") {
		t.Fatalf("constant not folded / fid lookup not pushed:\n%s", ps)
	}
	if !strings.Contains(ps, "cols=") {
		t.Fatalf("projection not pruned:\n%s", ps)
	}
	// The pruned columns must include ORDER BY's time and residual's fid.
	if !strings.Contains(ps, "fid") || !strings.Contains(ps, "time") {
		t.Fatalf("needed columns missing:\n%s", ps)
	}
}

// --- End-to-end SQL tests ---

func TestEndToEndDDL(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE pts (fid integer:primary key, geom point)`)
	res := mustExec(t, s, `SHOW TABLES`)
	if res.Frame.Count() != 1 {
		t.Fatalf("SHOW TABLES = %d rows", res.Frame.Count())
	}
	res = mustExec(t, s, `DESC TABLE pts`)
	if res.Frame.Count() != 2 {
		t.Fatalf("DESC = %d rows", res.Frame.Count())
	}
	mustExec(t, s, `DROP TABLE pts`)
	res = mustExec(t, s, `SHOW TABLES`)
	if res.Frame.Count() != 0 {
		t.Fatal("table not dropped")
	}
	if _, err := s.Execute(`CREATE TABLE pts (fid integer:primary key, geom point) USERDATA {'geomesa.indices.enabled':'warp'}`); err == nil {
		t.Fatal("bad index strategy should fail")
	}
}

func TestEndToEndSpatialQuery(t *testing.T) {
	s := newTestSession(t)
	setupPointTable(t, s)
	res := mustExec(t, s, `SELECT fid, name, geom FROM pts
		WHERE geom WITHIN st_makeMBR(115.995, 38.995, 116.055, 39.015)`)
	// Grid: lng 116.00-116.05 (6 cols), lat 39.00-39.01 (2 rows) = 12.
	if res.Frame.Count() != 12 {
		t.Fatalf("spatial query = %d rows, want 12", res.Frame.Count())
	}
	if res.Frame.Schema().Len() != 3 {
		t.Fatalf("schema = %v", res.Frame.Schema().Names())
	}
}

func TestEndToEndSTQuery(t *testing.T) {
	s := newTestSession(t)
	setupPointTable(t, s)
	res := mustExec(t, s, `SELECT fid FROM pts
		WHERE geom WITHIN st_makeMBR(115, 38, 117, 41)
		AND time BETWEEN 0 AND `+fmt.Sprint(10*hourMS))
	if res.Frame.Count() != 41 {
		t.Fatalf("st query = %d rows, want 41", res.Frame.Count())
	}
}

func TestEndToEndTimeStrings(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE ev (fid integer:primary key, time date, geom point)`)
	mustExec(t, s, `INSERT INTO ev VALUES
		(1, '1970-01-01 01:00:00', st_makePoint(1,1)),
		(2, '1970-01-02 01:00:00', st_makePoint(1,1)),
		(3, '1970-01-03 01:00:00', st_makePoint(1,1))`)
	res := mustExec(t, s, `SELECT fid FROM ev
		WHERE geom WITHIN st_makeMBR(0,0,2,2)
		AND time BETWEEN '1970-01-01' AND '1970-01-02 12:00:00'`)
	if res.Frame.Count() != 2 {
		t.Fatalf("time-string query = %d rows, want 2", res.Frame.Count())
	}
}

func TestEndToEndKNN(t *testing.T) {
	s := newTestSession(t)
	setupPointTable(t, s)
	res := mustExec(t, s, `SELECT fid, geom FROM pts
		WHERE geom IN st_KNN(st_makePoint(116.05, 39.05), 7)`)
	if res.Frame.Count() != 7 {
		t.Fatalf("knn = %d rows, want 7", res.Frame.Count())
	}
}

func TestEndToEndAggregation(t *testing.T) {
	s := newTestSession(t)
	setupPointTable(t, s)
	res := mustExec(t, s, `SELECT name, count(*) AS n FROM pts GROUP BY name ORDER BY n DESC LIMIT 5`)
	if res.Frame.Count() != 5 {
		t.Fatalf("group = %d rows", res.Frame.Count())
	}
	res = mustExec(t, s, `SELECT count(*) AS n, min(fid) AS lo, max(fid) AS hi FROM pts`)
	row := res.Frame.Collect()[0]
	if row[0] != int64(200) || row[1] != int64(0) || row[2] != int64(199) {
		t.Fatalf("global agg = %v", row)
	}
}

func TestEndToEndGroupByComputedAlias(t *testing.T) {
	// GROUP BY over a projection alias of a computed expression — the
	// urban-block pattern: st_geohash(geom, 5) AS block ... GROUP BY block.
	s := newTestSession(t)
	setupPointTable(t, s)
	res := mustExec(t, s, `SELECT st_geohash(geom, 4) AS block, count(*) AS n
		FROM pts GROUP BY block ORDER BY n DESC`)
	rows := res.Frame.Collect()
	if len(rows) == 0 {
		t.Fatal("no groups")
	}
	total := int64(0)
	for _, r := range rows {
		if _, ok := r[0].(string); !ok {
			t.Fatalf("block = %T", r[0])
		}
		total += r[1].(int64)
	}
	if total != 200 {
		t.Fatalf("group totals = %d, want 200", total)
	}
	// Aggregates over carried columns still work.
	res = mustExec(t, s, `SELECT st_geohash(geom, 4) AS block, max(fid) AS hi
		FROM pts GROUP BY block`)
	if res.Frame.Count() == 0 {
		t.Fatal("no groups with carried agg column")
	}
}

func TestEndToEndOrderByNonProjected(t *testing.T) {
	// The paper's Fig. 8 example: ORDER BY time while projecting name,
	// geom only.
	s := newTestSession(t)
	setupPointTable(t, s)
	res := mustExec(t, s, `SELECT name, geom FROM (SELECT * FROM pts) t
		WHERE fid < 10 ORDER BY time DESC`)
	rows := res.Frame.Collect()
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "r9" || rows[9][0] != "r0" {
		t.Fatalf("order = %v ... %v", rows[0][0], rows[9][0])
	}
	if res.Frame.Schema().Len() != 2 {
		t.Fatalf("projection = %v", res.Frame.Schema().Names())
	}
}

func TestEndToEndViews(t *testing.T) {
	s := newTestSession(t)
	setupPointTable(t, s)
	mustExec(t, s, `CREATE VIEW v1 AS SELECT fid, name FROM pts WHERE fid < 20`)
	res := mustExec(t, s, `SELECT count(*) AS n FROM v1`)
	if res.Frame.Collect()[0][0] != int64(20) {
		t.Fatalf("view count = %v", res.Frame.Collect())
	}
	res = mustExec(t, s, `SHOW VIEWS`)
	if res.Frame.Count() != 1 {
		t.Fatal("SHOW VIEWS")
	}
	// Store the view into a new table (auto-created).
	mustExec(t, s, `STORE VIEW v1 TO TABLE archived`)
	res = mustExec(t, s, `SELECT count(*) AS n FROM archived`)
	if res.Frame.Collect()[0][0] != int64(20) {
		t.Fatal("stored table count")
	}
	mustExec(t, s, `DROP VIEW v1`)
	if _, err := s.Execute(`SELECT * FROM v1`); err == nil {
		t.Fatal("dropped view still queryable")
	}
}

func TestEndToEndCoordinateTransform(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE p (fid integer:primary key, lng double, lat double, geom point)`)
	mustExec(t, s, `INSERT INTO p VALUES (1, 116.397, 39.909, st_makePoint(116.397, 39.909))`)
	res := mustExec(t, s, `SELECT st_WGS84ToGCJ02(lng, lat) AS g FROM p`)
	g := res.Frame.Collect()[0][0].(geom.Point)
	if g.Lng == 116.397 && g.Lat == 39.909 {
		t.Fatal("transform did not move the point")
	}
}

func TestEndToEndTrajectoryAnalysis(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE traj AS trajectory`)
	// Insert trajectories through the Go API (st_series has no SQL
	// literal), then run the 1-N operators via SQL.
	eng := s.engine
	var rows []exec.Row
	for i := 0; i < 5; i++ {
		var pts []geom.TPoint
		tms := int64(i) * hourMS
		for j := 0; j < 30; j++ {
			pts = append(pts, geom.TPoint{
				Point: geom.Point{Lng: 116.0 + float64(j)*1e-4, Lat: 39.9},
				T:     tms,
			})
			tms += 5000
			if j == 14 {
				tms += hourMS // a big gap mid-trajectory
			}
		}
		// One noisy point.
		pts[5].Lng += 0.5
		tr := &table.Trajectory{ID: fmt.Sprintf("t%d", i), Points: pts}
		row, err := tr.Row()
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if err := eng.BulkInsert("", "traj", rows); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, `SELECT st_trajNoiseFilter(item) FROM traj`)
	if res.Frame.Count() != 5 {
		t.Fatalf("noise filter rows = %d", res.Frame.Count())
	}
	for _, r := range res.Frame.Collect() {
		tr, err := table.TrajectoryFromRow(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Points) != 29 {
			t.Fatalf("filtered points = %d, want 29", len(tr.Points))
		}
	}
	res = mustExec(t, s, `SELECT st_trajSegmentation(item, 10) FROM traj`)
	if res.Frame.Count() != 10 { // each trajectory splits in two
		t.Fatalf("segments = %d, want 10", res.Frame.Count())
	}
}

func TestEndToEndDBSCAN(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE p (fid integer:primary key, geom point)`)
	var rows []string
	id := 0
	for i := 0; i < 30; i++ {
		rows = append(rows, fmt.Sprintf("(%d, st_makePoint(%g, %g))", id, 116.0+float64(i%6)*0.0001, 39.9+float64(i/6)*0.0001))
		id++
	}
	for i := 0; i < 30; i++ {
		rows = append(rows, fmt.Sprintf("(%d, st_makePoint(%g, %g))", id, 120.0+float64(i%6)*0.0001, 30.0+float64(i/6)*0.0001))
		id++
	}
	mustExec(t, s, "INSERT INTO p VALUES "+strings.Join(rows, ","))
	res := mustExec(t, s, `SELECT st_DBSCAN(geom, 5, 0.01) FROM p`)
	clusters := map[int64]int{}
	for _, r := range res.Frame.Collect() {
		clusters[r[0].(int64)]++
	}
	if len(clusters) != 2 || clusters[0] != 30 || clusters[1] != 30 {
		t.Fatalf("clusters = %v", clusters)
	}
}

func TestEndToEndLoadCSV(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE orders (fid integer:primary key, time date, geom point)`)
	csvPath := filepath.Join(t.TempDir(), "orders.csv")
	content := "orderId,ts,lng,lat\n"
	for i := 0; i < 50; i++ {
		content += fmt.Sprintf("%d,%d,%g,%g\n", i, int64(i)*hourMS, 116.0+float64(i)*0.001, 39.9)
	}
	if err := os.WriteFile(csvPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, fmt.Sprintf(`LOAD csv:'%s' TO geomesa:orders CONFIG {
		'fid': 'orderId',
		'time': 'long_to_date_ms(ts)',
		'geom': 'lng_lat_to_point(lng, lat)'
	}`, csvPath))
	res := mustExec(t, s, `SELECT count(*) AS n FROM orders`)
	if res.Frame.Collect()[0][0] != int64(50) {
		t.Fatalf("loaded = %v", res.Frame.Collect())
	}
	// With FILTER and limit.
	mustExec(t, s, `CREATE TABLE orders2 (fid integer:primary key, time date, geom point)`)
	mustExec(t, s, fmt.Sprintf(`LOAD csv:'%s' TO geomesa:orders2 CONFIG {
		'fid': 'orderId', 'time': 'long_to_date_ms(ts)', 'geom': 'lng_lat_to_point(lng, lat)'
	} FILTER 'orderId >= 10 limit 5'`, csvPath))
	res = mustExec(t, s, `SELECT count(*) AS n FROM orders2`)
	if res.Frame.Collect()[0][0] != int64(5) {
		t.Fatalf("filtered load = %v", res.Frame.Collect())
	}
}

func TestEndToEndLoadGeoJSON(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE poi (fid integer:primary key, name string, geom point)`)
	path := filepath.Join(t.TempDir(), "poi.geojson")
	doc := `{
	  "type": "FeatureCollection",
	  "features": [
	    {"type": "Feature", "properties": {"id": 1, "name": "Tiananmen"},
	     "geometry": {"type": "Point", "coordinates": [116.3913, 39.9075]}},
	    {"type": "Feature", "properties": {"id": 2, "name": "JD HQ"},
	     "geometry": {"type": "Point", "coordinates": [116.4960, 39.7916]}},
	    {"type": "Feature", "properties": {"id": 3, "name": "Far away"},
	     "geometry": {"type": "Point", "coordinates": [-70.0, -30.0]}}
	  ]
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, fmt.Sprintf(`LOAD geojson:'%s' TO geomesa:poi CONFIG {
		'fid': 'id', 'name': 'name', 'geom': 'geometry'
	}`, path))
	res := mustExec(t, s, `SELECT name FROM poi
		WHERE geom WITHIN st_makeMBR(116, 39, 117, 40) ORDER BY name`)
	rows := res.Frame.Collect()
	if len(rows) != 2 || rows[0][0] != "JD HQ" || rows[1][0] != "Tiananmen" {
		t.Fatalf("geojson rows = %v", rows)
	}
	// Non-point geometries load too.
	mustExec(t, s, `CREATE TABLE zones (fid integer:primary key, geom polygon)`)
	zonePath := filepath.Join(t.TempDir(), "zones.geojson")
	zoneDoc := `{"type":"FeatureCollection","features":[
	  {"type":"Feature","properties":{"id":1},
	   "geometry":{"type":"Polygon","coordinates":[[[116,39],[117,39],[117,40],[116,40],[116,39]]]}}
	]}`
	if err := os.WriteFile(zonePath, []byte(zoneDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, fmt.Sprintf(`LOAD geojson:'%s' TO geomesa:zones CONFIG {'fid':'id','geom':'geometry'}`, zonePath))
	res = mustExec(t, s, `SELECT count(*) AS n FROM zones`)
	if res.Frame.Collect()[0][0] != int64(1) {
		t.Fatal("polygon feature not loaded")
	}
}

func TestUserNamespaces(t *testing.T) {
	e, err := core.Open(core.Config{
		Dir:     t.TempDir(),
		Cluster: kv.ClusterOptions{Options: kv.Options{DisableWAL: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	alice := NewSession(e, "alice")
	bob := NewSession(e, "bob")
	mustExec(t, alice, `CREATE TABLE t1 (fid integer:primary key, geom point)`)
	mustExec(t, bob, `CREATE TABLE t1 (fid integer:primary key, geom point)`)
	mustExec(t, alice, `INSERT INTO t1 VALUES (1, st_makePoint(1,1))`)
	resA := mustExec(t, alice, `SELECT count(*) AS n FROM t1`)
	resB := mustExec(t, bob, `SELECT count(*) AS n FROM t1`)
	if resA.Frame.Collect()[0][0] != int64(1) || resB.Frame.Collect()[0][0] != int64(0) {
		t.Fatalf("namespace leak: alice=%v bob=%v", resA.Frame.Collect(), resB.Frame.Collect())
	}
}

func TestEndToEndJoin(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE stations (sid integer:primary key, sname string, geom point)`)
	mustExec(t, s, `CREATE TABLE readings (rid integer:primary key, station integer, value double, geom point)`)
	mustExec(t, s, `INSERT INTO stations VALUES
		(1, 'alpha', st_makePoint(116.1, 39.1)),
		(2, 'beta',  st_makePoint(116.2, 39.2))`)
	mustExec(t, s, `INSERT INTO readings VALUES
		(10, 1, 5.0, st_makePoint(116.1, 39.1)),
		(11, 1, 7.0, st_makePoint(116.1, 39.1)),
		(12, 2, 9.0, st_makePoint(116.2, 39.2)),
		(13, 9, 1.0, st_makePoint(116.3, 39.3))`)
	res := mustExec(t, s, `SELECT sname, value FROM readings
		JOIN stations ON station = sid ORDER BY value`)
	rows := res.Frame.Collect()
	if len(rows) != 3 {
		t.Fatalf("join rows = %v", rows)
	}
	if rows[0][0] != "alpha" || rows[0][1] != 5.0 || rows[2][0] != "beta" {
		t.Fatalf("join content = %v", rows)
	}
	// LEFT JOIN keeps the unmatched reading.
	res = mustExec(t, s, `SELECT rid, sname FROM readings
		LEFT JOIN stations ON station = sid`)
	if res.Frame.Count() != 4 {
		t.Fatalf("left join rows = %d", res.Frame.Count())
	}
	var unmatched exec.Row
	for _, r := range res.Frame.Collect() {
		if r[0] == int64(13) {
			unmatched = r
		}
	}
	if unmatched == nil || unmatched[1] != nil {
		t.Fatalf("unmatched row = %v", unmatched)
	}
	// Join + aggregation composes.
	res = mustExec(t, s, `SELECT sname, avg(value) AS mean FROM readings
		JOIN stations ON station = sid GROUP BY sname ORDER BY sname`)
	rows = res.Frame.Collect()
	if len(rows) != 2 || rows[0][1] != 6.0 || rows[1][1] != 9.0 {
		t.Fatalf("join+agg = %v", rows)
	}
	// Unresolvable keys fail cleanly.
	if _, err := s.Execute(`SELECT * FROM readings JOIN stations ON nope = sid`); err == nil {
		t.Fatal("bad join key should fail")
	}
}

func TestQueryMemoryAccounting(t *testing.T) {
	s := newTestSession(t)
	setupPointTable(t, s)
	before := s.engine.Context().MemUsed()
	res := mustExec(t, s, `SELECT name FROM pts WHERE fid < 50 ORDER BY fid`)
	res.Frame.Release()
	after := s.engine.Context().MemUsed()
	if after != before {
		t.Fatalf("query leaked %d bytes (before=%d after=%d)", after-before, before, after)
	}
}

func TestNonSpatialTable(t *testing.T) {
	// Pure relational tables (no geometry) fall back to attribute-index
	// scans and still support the full SQL surface.
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE kv (fid integer:primary key, v string)`)
	mustExec(t, s, `INSERT INTO kv VALUES (1, 'a'), (2, 'b'), (3, 'a')`)
	res := mustExec(t, s, `SELECT v, count(*) AS n FROM kv GROUP BY v ORDER BY n DESC`)
	rows := res.Frame.Collect()
	if len(rows) != 2 || rows[0][0] != "a" || rows[0][1] != int64(2) {
		t.Fatalf("rows = %v", rows)
	}
	res = mustExec(t, s, `SELECT v FROM kv WHERE fid = 2`)
	if res.Frame.Count() != 1 || res.Frame.Collect()[0][0] != "b" {
		t.Fatalf("point lookup = %v", res.Frame.Collect())
	}
}

func TestFIDPointLookup(t *testing.T) {
	s := newTestSession(t)
	setupPointTable(t, s)
	res := mustExec(t, s, `SELECT name FROM pts WHERE fid = 42`)
	ps := PlanString(res.Plan)
	if !strings.Contains(ps, "fid=42") {
		t.Fatalf("fid lookup not pushed:\n%s", ps)
	}
	rows := res.Frame.Collect()
	if len(rows) != 1 || rows[0][0] != "r42" {
		t.Fatalf("rows = %v", rows)
	}
	// Missing fid returns empty, not an error.
	res = mustExec(t, s, `SELECT name FROM pts WHERE fid = 99999`)
	if res.Frame.Count() != 0 {
		t.Fatal("missing fid should return no rows")
	}
	// fid lookup composes with other predicates.
	res = mustExec(t, s, `SELECT name FROM pts WHERE fid = 42 AND name = 'nope'`)
	if res.Frame.Count() != 0 {
		t.Fatal("residual predicate should filter the looked-up row")
	}
	res = mustExec(t, s, `SELECT name FROM pts
		WHERE fid = 42 AND geom WITHIN st_makeMBR(0, 0, 1, 1)`)
	if res.Frame.Count() != 0 {
		t.Fatal("window should filter the looked-up row")
	}
}

func TestParseJoin(t *testing.T) {
	stmt, err := Parse(`SELECT a FROM t1 x JOIN t2 y ON x.k = y.k WHERE a > 1`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	if sel.Join == nil || sel.Join.LeftCol != "k" || sel.Join.RightCol != "k" {
		t.Fatalf("join = %+v", sel.Join)
	}
	if sel.Join.Left {
		t.Fatal("inner join misparsed as left")
	}
	stmt, err = Parse(`SELECT a FROM t1 LEFT JOIN (SELECT * FROM t3) s ON k1 = k2`)
	if err != nil {
		t.Fatal(err)
	}
	sel = stmt.(*SelectStmt)
	if !sel.Join.Left || sel.Join.Right.Subquery == nil {
		t.Fatalf("left join = %+v", sel.Join)
	}
	if _, err := Parse(`SELECT a FROM t1 JOIN t2`); err == nil {
		t.Fatal("JOIN without ON should fail")
	}
}

func TestExplain(t *testing.T) {
	s := newTestSession(t)
	setupPointTable(t, s)
	res := mustExec(t, s, `EXPLAIN SELECT name FROM pts
		WHERE geom WITHIN st_makeMBR(116, 39, 117, 40) AND fid < 10`)
	if res.Frame != nil {
		t.Fatal("EXPLAIN should not execute the query")
	}
	if !strings.Contains(res.Message, "Scan[pts") || !strings.Contains(res.Message, "window=") {
		t.Fatalf("explain output:\n%s", res.Message)
	}
}

func TestSelectErrors(t *testing.T) {
	s := newTestSession(t)
	setupPointTable(t, s)
	bad := []string{
		`SELECT nope FROM pts`,
		`SELECT * FROM missing`,
		`SELECT name, count(*) FROM pts`, // name not grouped
		`SELECT st_nosuchfunc(fid) FROM pts`,
		`SELECT fid FROM pts WHERE name`, // non-boolean where
	}
	for _, q := range bad {
		if _, err := s.Execute(q); err == nil {
			t.Errorf("Execute(%q) should fail", q)
		}
	}
}

// TestProjectionWithResidualPredicate pins the projection-pushdown
// contract: a residual predicate referencing a column outside the
// SELECT list must still see that column decoded.
func TestProjectionWithResidualPredicate(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE pts (fid integer:primary key, name string, time date, geom point)`)
	for i := 0; i < 20; i++ {
		mustExec(t, s, fmt.Sprintf(
			`INSERT INTO pts VALUES (%d, 'n%d', %d, st_makePoint(116.%02d, 39.9))`,
			i, i%3, i*1000, i))
	}
	res := mustExec(t, s, `SELECT fid FROM pts WHERE name = 'n1'`)
	rows := res.Frame.Collect()
	if len(rows) == 0 {
		t.Fatal("residual over non-projected column found nothing")
	}
	for _, r := range rows {
		if len(r) != 1 {
			t.Fatalf("projected row has %d columns: %v", len(r), r)
		}
		if r[0].(int64)%3 != 1 {
			t.Fatalf("row %v fails the residual predicate", r)
		}
	}
	res.Frame.Release()
}

// TestNullRules pins the NULL rules of expressions and ORDER BY.
// Arithmetic with a NULL operand is NULL (it used to abort the whole
// statement with "arithmetic on non-numeric values <nil>, int64"). A
// sort puts NULLs first ascending and last descending on every key, and
// is stable among ties.
func TestNullRules(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE n (fid integer:primary key, g string, v integer)`)
	mustExec(t, s, `INSERT INTO n VALUES (1, 'a', 5), (2, NULL, 3), (3, 'a', NULL),
		(4, 'b', 7), (5, NULL, NULL), (6, 'b', 7), (7, 'a', 5)`)

	res := mustExec(t, s, `SELECT fid, v + 1, -v, v * 2.5 FROM n WHERE fid = 1 OR fid = 3 ORDER BY fid`)
	want := []exec.Row{{int64(1), int64(6), int64(-5), 12.5}, {int64(3), nil, nil, nil}}
	if got := res.Frame.Collect(); !reflect.DeepEqual(got, want) {
		t.Fatalf("NULL arithmetic = %v, want %v", got, want)
	}
	res = mustExec(t, s, `SELECT count(*) AS c FROM n WHERE v + 1 > 4`)
	if got := res.Frame.Collect()[0][0]; got != int64(4) {
		t.Fatalf("rows with v + 1 > 4 = %v, want 4 (a NULL sum satisfies no > predicate)", got)
	}

	base := mustExec(t, s, `SELECT fid, g, v FROM n`).Frame.Collect()
	for _, tc := range []struct {
		order        string
		gDesc, vDesc bool
	}{
		{"g, v DESC", false, true},
		{"g DESC, v", true, false},
		{"v DESC, g DESC", true, true},
	} {
		ref := append([]exec.Row{}, base...)
		keys := []struct {
			col  int
			desc bool
		}{{1, tc.gDesc}, {2, tc.vDesc}}
		if strings.HasPrefix(tc.order, "v") {
			keys[0], keys[1] = keys[1], keys[0]
		}
		sort.SliceStable(ref, func(i, j int) bool {
			for _, k := range keys {
				if c, _ := exec.Compare(ref[i][k.col], ref[j][k.col]); c != 0 {
					return (c < 0) != k.desc
				}
			}
			return false
		})
		got := mustExec(t, s, `SELECT fid, g, v FROM n ORDER BY `+tc.order).Frame.Collect()
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("ORDER BY %s = %v, want %v", tc.order, got, ref)
		}
	}
	// One hand-checked order, so the reference above cannot share a bug.
	var fids []any
	for _, r := range mustExec(t, s, `SELECT fid FROM n WHERE fid < 6 ORDER BY g, v DESC`).Frame.Collect() {
		fids = append(fids, r[0])
	}
	if want := []any{int64(2), int64(5), int64(1), int64(3), int64(4)}; !reflect.DeepEqual(fids, want) {
		t.Fatalf("ORDER BY g, v DESC = %v, want %v", fids, want)
	}
}
