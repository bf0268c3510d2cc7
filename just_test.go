package just

import (
	"fmt"
	"testing"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(Config{Dir: t.TempDir(), DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestPublicAPIQuickstart(t *testing.T) {
	e := newEngine(t)
	sess := e.Session("demo")
	if _, err := sess.Execute(`CREATE TABLE pts (fid integer:primary key, time date, geom point)`); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute(`INSERT INTO pts VALUES
		(1, '2019-10-01 08:00:00', st_makePoint(116.40, 39.90)),
		(2, '2019-10-01 09:00:00', st_makePoint(116.41, 39.91)),
		(3, '2019-10-02 08:00:00', st_makePoint(100.00, 10.00))`); err != nil {
		t.Fatal(err)
	}
	rs, err := sess.ExecuteQuery(`SELECT fid FROM pts
		WHERE geom WITHIN st_makeMBR(116, 39, 117, 40)
		AND time BETWEEN '2019-10-01' AND '2019-10-01 23:59:59'`)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	n := 0
	for rs.HasNext() {
		row := rs.Next()
		if row[0].(int64) == 3 {
			t.Fatal("row 3 should be filtered")
		}
		n++
	}
	if n != 2 {
		t.Fatalf("rows = %d, want 2", n)
	}
}

func TestPublicAPITypedQueries(t *testing.T) {
	e := newEngine(t)
	sess := e.Session("")
	if _, err := sess.Execute(`CREATE TABLE pts (fid integer:primary key, time date, geom point)`); err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for i := 0; i < 100; i++ {
		rows = append(rows, Row{int64(i), int64(i) * 60000, Point{Lng: 116 + float64(i)*0.001, Lat: 39.9}})
	}
	if err := e.BulkInsert("", "pts", rows); err != nil {
		t.Fatal(err)
	}
	df, err := e.SpatialRange("", "pts", NewMBR(116, 39.8, 116.05, 40))
	if err != nil {
		t.Fatal(err)
	}
	if df.Count() != 51 {
		t.Fatalf("spatial = %d", df.Count())
	}
	df2, err := e.STRange("", "pts", NewMBR(115, 39, 117, 41), 0, 10*60000)
	if err != nil {
		t.Fatal(err)
	}
	if df2.Count() != 11 {
		t.Fatalf("st = %d", df2.Count())
	}
	nbs, err := e.KNN("", "pts", Point{Lng: 116.05, Lat: 39.9}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 5 || nbs[0].Row[0] != int64(50) {
		t.Fatalf("knn = %v", nbs)
	}
}

func TestPublicAPITrajectories(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateTrajectoryTable("", "traj"); err != nil {
		t.Fatal(err)
	}
	var trajs []*Trajectory
	for i := 0; i < 10; i++ {
		trajs = append(trajs, &Trajectory{
			ID: fmt.Sprintf("t%d", i),
			Points: []TPoint{
				{Point: Point{Lng: 116.4, Lat: 39.9}, T: int64(i) * 1000},
				{Point: Point{Lng: 116.5, Lat: 39.95}, T: int64(i)*1000 + 60000},
			},
		})
	}
	if err := e.InsertTrajectories("", "traj", trajs); err != nil {
		t.Fatal(err)
	}
	df, err := e.SpatialRange("", "traj", NewMBR(116, 39, 117, 40))
	if err != nil {
		t.Fatal(err)
	}
	if df.Count() != 10 {
		t.Fatalf("traj query = %d", df.Count())
	}
}

func TestResultSetCursor(t *testing.T) {
	e := newEngine(t)
	sess := e.Session("")
	sess.Execute(`CREATE TABLE p (fid integer:primary key, geom point)`)
	sess.Execute(`INSERT INTO p VALUES (1, st_makePoint(1,1)), (2, st_makePoint(2,2))`)
	rs, err := sess.Execute(`SELECT fid FROM p WHERE geom WITHIN st_makeMBR(0,0,3,3) ORDER BY fid`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 || rs.Columns()[0] != "fid" {
		t.Fatalf("rs = %v %d", rs.Columns(), rs.Len())
	}
	var got []int64
	for rs.HasNext() {
		got = append(got, rs.Next()[0].(int64))
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("cursor = %v", got)
	}
	rs.Reset()
	if !rs.HasNext() {
		t.Fatal("reset failed")
	}
	if s := rs.String(); s == "" {
		t.Fatal("empty render")
	}
	rs.Close()
	// DDL results carry messages.
	res, err := e.Session("").Execute(`CREATE TABLE q (fid integer:primary key, geom point)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Message() == "" || res.HasNext() {
		t.Fatalf("ddl result = %q", res.Message())
	}
}
