package table

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/kv"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden.json from the plans this tree produces")

// digestRanges renders a plan as "<range count>:<digest>". The digest
// covers the ranges in plan order: each bound length-prefixed, an open
// end marked so it cannot collide with an empty one.
func digestRanges(ranges []kv.KeyRange) string {
	h := sha256.New()
	var n [4]byte
	put := func(b []byte, open bool) {
		binary.BigEndian.PutUint32(n[:], uint32(len(b)))
		if open {
			n[0] = 0xFF
		}
		h.Write(n[:])
		h.Write(b)
	}
	for _, r := range ranges {
		put(r.Start, false)
		put(r.End, r.End == nil)
	}
	return fmt.Sprintf("%d:%s", len(ranges), hex.EncodeToString(h.Sum(nil)[:8]))
}

// Pinned windows: a city block, a district, a country-sized box, one
// straddling the curve's top-level quadrant boundaries, both sides of
// the antimeridian, and the pole.
var goldenWindows = []struct {
	name string
	w    geom.MBR
}{
	{"city-3km", geom.SquareAround(geom.Point{Lng: 116.40, Lat: 39.90}, 3000)},
	{"district-10km", geom.SquareAround(geom.Point{Lng: 121.47, Lat: 31.23}, 10000)},
	{"country", geom.NewMBR(73, 18, 135, 53)},
	{"origin-straddle", geom.NewMBR(-0.05, -0.05, 0.05, 0.05)},
	{"antimeridian-east", geom.NewMBR(179.5, -10, 180, -9.5)},
	{"antimeridian-west", geom.NewMBR(-180, 10, -179.6, 10.3)},
	{"pole", geom.NewMBR(10, 89.5, 11, 90)},
}

const goldenDay = int64(24 * 3600 * 1000)

// Pinned time intervals (ms): inside one period, across several, exactly
// one period, one millisecond either side of a boundary, before the
// epoch, across it, and a single instant.
var goldenIntervals = []struct {
	name       string
	tmin, tmax int64
}{
	{"sub-period", 18000*goldenDay + 3600_000, 18000*goldenDay + 13*3600_000},
	{"multi-period", 18000*goldenDay + 20*3600_000, 18003*goldenDay + 2*3600_000},
	{"whole-period", 18001 * goldenDay, 18002*goldenDay - 1},
	{"boundary-straddle", 18001*goldenDay - 1, 18001 * goldenDay},
	{"pre-epoch", -3*goldenDay - 5*3600_000, -goldenDay + 2*3600_000},
	{"epoch-straddle", -3600_000, 3600_000},
	{"instant", 18000*goldenDay + 12345, 18000*goldenDay + 12345},
}

var goldenConfigs = []struct {
	name string
	cfg  index.Config
}{
	{"default", index.Config{}},
	{"week-2shards-back2", index.Config{Shards: 2, Period: 7 * 24 * time.Hour, MaxRecordPeriods: 2}},
}

// TestPlanGolden pins every strategy's expansion of a window and time
// interval into key ranges, byte for byte, against the plans the tree
// produced before the six strategy types became one.
func TestPlanGolden(t *testing.T) {
	// A table span that cuts nothing off the pinned intervals.
	allTime := index.Span{Min: math.MinInt64, Max: math.MaxInt64}
	got := map[string]string{}
	for _, name := range []string{"z2", "xz2", "z3", "xz3", "z2t", "xz2t"} {
		for _, c := range goldenConfigs {
			s, ok := index.New(name, c.cfg)
			if !ok {
				t.Fatalf("index.New(%q)", name)
			}
			for _, w := range goldenWindows {
				for _, iv := range goldenIntervals {
					if !s.Temporal() && iv.name != "sub-period" {
						continue // the interval does not reach a period-less key
					}
					q := index.Query{Window: w.w, HasTime: true, TMin: iv.tmin, TMax: iv.tmax}
					ranges := s.Plan(q, allTime).KeyRanges(nil)
					got[fmt.Sprintf("%s/%s/%s/%s", name, c.name, w.name, iv.name)] = digestRanges(ranges)
				}
			}
		}
	}
	compareGolden(t, "testdata/plans.golden.json", got)
}

// goldenTable builds a table with the given index strategies and a
// pinned data set: points (or, when traj, short line strings) around
// Beijing over ten days from day 18000, the first and last row sitting
// on the ends of that span.
func goldenTable(t *testing.T, traj bool, strategies ...string) *Table {
	t.Helper()
	cluster, err := kv.OpenCluster(t.TempDir(), kv.ClusterOptions{Options: kv.Options{DisableWAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	d := &Desc{
		Name: "g", Kind: KindCommon,
		Columns: []Column{
			{Name: "fid", Type: exec.TypeInt, PrimaryKey: true},
			{Name: "t0", Type: exec.TypeTime},
			{Name: "t1", Type: exec.TypeTime},
			{Name: "geom", Type: exec.TypeGeometry},
		},
		Indexes:   []IndexDesc{{Strategy: "attr", ID: 0}},
		FidColumn: "fid", GeomColumn: "geom", TimeColumn: "t0", EndTimeColumn: "t1",
	}
	for i, s := range strategies {
		d.Indexes = append(d.Indexes, IndexDesc{Strategy: s, ID: uint8(i + 1)})
	}
	cat := NewCatalog(cluster, IndexConfig{})
	if err := cat.Create(d); err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(d, cluster, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	rng := rand.New(rand.NewSource(28))
	rows := make([]exec.Row, n)
	first, last := 18000*goldenDay+7*3600_000, 18009*goldenDay+15*3600_000
	for i := range rows {
		start := first + rng.Int63n(last-first)
		switch i {
		case 0:
			start = first
		case n - 1:
			start = last
		}
		p := geom.Point{Lng: 116.0 + rng.Float64(), Lat: 39.5 + rng.Float64()}
		var g geom.Geometry = p
		end := start
		if traj {
			g = &geom.LineString{Points: []geom.Point{p, {Lng: p.Lng + 0.01*rng.Float64(), Lat: p.Lat + 0.01*rng.Float64()}}}
			end = start + rng.Int63n(3*3600_000)
		}
		rows[i] = exec.Row{int64(i), start, end, g}
	}
	if err := insertRows(tbl, rows...); err != nil {
		t.Fatal(err)
	}
	if got, want := tbl.TimeSpan(), (index.Span{Min: first, Max: last}); got != want {
		t.Fatalf("time span after insert = %+v, want %+v", got, want)
	}
	return tbl
}

// TestAccessPathGolden pins the chooser: for each table shape and query,
// the strategy picked, the number of key ranges and their bytes (under
// the table / index prefix), without statistics and with them, against
// what the two choosers picked before they became one planner.
func TestAccessPathGolden(t *testing.T) {
	tables := []struct {
		name       string
		traj       bool
		strategies []string
	}{
		{"point-z2-z2t", false, []string{"z2", "z2t"}},
		{"point-z2-z3", false, []string{"z2", "z3"}},
		{"point-z2t-only", false, []string{"z2t"}},
		{"point-z3-z2t", false, []string{"z3", "z2t"}},
		{"traj-xz2-xz2t", true, []string{"xz2", "xz2t"}},
		{"traj-xz2-xz3", true, []string{"xz2", "xz3"}},
		{"traj-xz2t-only", true, []string{"xz2t"}},
		{"traj-xz3-only", true, []string{"xz3"}},
	}
	city := geom.SquareAround(geom.Point{Lng: 116.40, Lat: 39.90}, 3000)
	district := geom.SquareAround(geom.Point{Lng: 116.5, Lat: 40.0}, 10000)
	metro := geom.NewMBR(116.0, 39.5, 117.0, 40.5)
	queries := []struct {
		name string
		q    index.Query
	}{
		{"city-1day", index.Query{Window: city, HasTime: true, TMin: 18003 * goldenDay, TMax: 18004*goldenDay - 1}},
		{"city-2hours", index.Query{Window: city, HasTime: true, TMin: 18005*goldenDay + 9*3600_000, TMax: 18005*goldenDay + 11*3600_000}},
		{"district-7days", index.Query{Window: district, HasTime: true, TMin: 18001*goldenDay + 3600_000, TMax: 18008*goldenDay + 3600_000}},
		// Reaches past the last record but not past its period.
		{"district-tail", index.Query{Window: district, HasTime: true, TMin: 18009 * goldenDay, TMax: 18009*goldenDay + 20*3600_000}},
		{"metro-whole-span", index.Query{Window: metro, HasTime: true, TMin: 18000*goldenDay + 7*3600_000, TMax: 18009*goldenDay + 15*3600_000}},
		{"city-no-time", index.Query{Window: city}},
		{"district-no-time", index.Query{Window: district}},
		{"world-no-time", index.Query{Window: geom.WorldMBR}},
		{"world-1day", index.Query{Window: geom.WorldMBR, HasTime: true, TMin: 18002 * goldenDay, TMax: 18003*goldenDay - 1}},
	}
	got := map[string]string{}
	for _, tc := range tables {
		tbl := goldenTable(t, tc.traj, tc.strategies...)
		for _, mode := range []string{"nostats", "stats"} {
			if mode == "stats" {
				if _, err := tbl.RefreshStats(bg); err != nil {
					t.Fatal(err)
				}
			}
			for _, qc := range queries {
				p, err := tbl.PlanAccess(qc.q)
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("%s/%s/%s", tc.name, mode, qc.name)] = p.Strategy + ":" + digestRanges(p.Ranges)
			}
		}
	}
	compareGolden(t, "testdata/access.golden.json", got)
}

func compareGolden(t *testing.T, path string, got map[string]string) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cases, golden has %d", len(got), len(want))
	}
	for k, w := range want {
		if g := got[k]; g != w {
			t.Errorf("%s: plan %s, golden %s", k, g, w)
		}
	}
}
