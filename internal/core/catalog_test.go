package core

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"just/internal/exec"
	"just/internal/geom"
)

// filesOutsideStore reads every file under dir except the store's own
// data/ tree: what the engine keeps beside the store.
func filesOutsideStore(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == filepath.Join(dir, "data") {
				return filepath.SkipDir
			}
			return nil
		}
		b, err := os.ReadFile(p)
		files[p] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestTimeSpanSurvivesLostCatalogWrite is the power-loss case of the
// planner's time span: every plan is cut to it, so a row acknowledged
// outside the span that reopens from disk is silently never read. The
// test inserts a row at 1 h, keeps every file beside the store, inserts
// a row at 50 h (another 24 h period), closes, and puts the kept files
// back: what a power loss leaves of files written without a sync. The
// store's WAL is synced, so the 50 h row must still be found.
func TestTimeSpanSurvivesLostCatalogWrite(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	pt := geom.Point{Lng: 116.4, Lat: 39.9}
	if err := e.Insert("", "pts", []exec.Row{{int64(1), "a", 1 * hourMS, pt}}); err != nil {
		t.Fatal(err)
	}
	kept := filesOutsideStore(t, dir)
	if err := e.Insert("", "pts", []exec.Row{{int64(2), "b", 50 * hourMS, pt}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for p := range filesOutsideStore(t, dir) {
		if _, ok := kept[p]; !ok {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for p, b := range kept {
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	df, err := e.STRange(context.Background(), "", "pts", geom.NewMBR(116, 39, 117, 40), 49*hourMS, 51*hourMS)
	if err != nil {
		t.Fatal(err)
	}
	if df.Count() != 1 {
		t.Fatalf("rows in [49 h, 51 h] after the lost write = %d, want 1", df.Count())
	}
}

// TestInsertsLeaveNothingBesideTheStore: the catalog is rows in the
// store, so a run of INSERTs creates or changes no file under Dir
// outside the store's data/ directory — there is none to change.
func TestInsertsLeaveNothingBesideTheStore(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	before := filesOutsideStore(t, dir)
	for i := 0; i < 20; i++ {
		row := exec.Row{int64(i), "r", int64(i) * 30 * hourMS, geom.Point{Lng: 116.4, Lat: 39.9}}
		if err := e.Insert("", "pts", []exec.Row{row}); err != nil {
			t.Fatal(err)
		}
	}
	if after := filesOutsideStore(t, dir); len(before) != 0 || len(after) != 0 {
		t.Fatalf("files beside the store: %d before the INSERTs, %d after, want none", len(before), len(after))
	}
}

// TestOpenRefusesCatalogFile: a directory that still holds the catalog
// file of an older engine is refused by name, not opened as if it held
// no tables.
func TestOpenRefusesCatalogFile(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "catalog.json")
	if err := os.WriteFile(old, []byte(`{"tables":{},"next_id":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Open(Config{Dir: dir})
	if err == nil {
		e.Close()
		t.Fatal("Open accepted a directory holding a catalog file")
	}
	if !strings.Contains(err.Error(), old) {
		t.Fatalf("error %q does not name %s", err, old)
	}
}

// TestConcurrentInsertsKeepTheSpan: one writer widens the table's time
// span downward while another widens it upward, so their span rows
// commit in either order. After a reopen the span is exactly that of
// the acknowledged rows, and every row is found.
func TestConcurrentInsertsKeepTheSpan(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	const batches, rowsPer = 40, 3
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w, sign := range []int64{-1, 1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				var rows []exec.Row
				for r := 0; r < rowsPer; r++ {
					fid := int64((w*batches+b)*rowsPer + r)
					rows = append(rows, exec.Row{fid, "c", sign * int64(b*rowsPer+r) * hourMS, geom.Point{Lng: 116.4, Lat: 39.9}})
				}
				if err := e.Insert("", "pts", rows); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl, err := e.OpenTable("", "pts")
	if err != nil {
		t.Fatal(err)
	}
	last := int64(batches*rowsPer-1) * hourMS
	if span := tbl.TimeSpan(); span.Min != -last || span.Max != last {
		t.Fatalf("span after reopen = %+v, want [%d, %d]", span, -last, last)
	}
	df, err := e.STRange(context.Background(), "", "pts", geom.NewMBR(116, 39, 117, 40), -last, last)
	if err != nil {
		t.Fatal(err)
	}
	if df.Count() != 2*batches*rowsPer {
		t.Fatalf("rows found after reopen = %d, want %d", df.Count(), 2*batches*rowsPer)
	}
}

// TestUserTableShadowsPublicOne: a user's table is resolved before the
// public one of the same name, also when the public one is already
// open in the process — after it was queried, and after a restart.
// The user's INSERT and DROP never reach the public table.
func TestUserTableShadowsPublicOne(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }()
	window := geom.NewMBR(116, 39, 117, 40)
	count := func(user string) int {
		t.Helper()
		df, err := e.SpatialRange(context.Background(), user, "pts", window)
		if err != nil {
			t.Fatal(err)
		}
		return df.Count()
	}
	row := func(fid int64) []exec.Row {
		return []exec.Row{{fid, "r", hourMS, geom.Point{Lng: 116.4, Lat: 39.9}}}
	}
	if err := e.CreateTable(pointDesc("pts")); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("", "pts", row(1)); err != nil {
		t.Fatal(err)
	}
	if n := count("u1"); n != 1 {
		t.Fatalf("u1 reads %d rows of the public table, want 1", n)
	}
	own := pointDesc("pts")
	own.User = "u1"
	if err := e.CreateTable(own); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if err := e.Insert("u1", "pts", row(int64(10+round))); err != nil {
			t.Fatal(err)
		}
		if pub, mine := count(""), count("u1"); pub != 1 || mine != round+1 {
			t.Fatalf("round %d: public table holds %d rows, u1's %d; want 1 and %d", round, pub, mine, round+1)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if e, err = Open(Config{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		if n := count(""); n != 1 {
			t.Fatalf("round %d: public table holds %d rows after reopen, want 1", round, n)
		}
	}
	if err := e.DropTable(context.Background(), "u1", "pts"); err != nil {
		t.Fatal(err)
	}
	if n := count(""); n != 1 {
		t.Fatalf("public table holds %d rows after u1's DROP, want 1", n)
	}
	if n := count("u1"); n != 1 {
		t.Fatalf("u1 reads %d rows after its DROP, want the public table's 1", n)
	}
}
