package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"just/internal/geom"
	"just/internal/kv"
	"just/internal/zorder"
)

const dayMs = int64(24 * 60 * 60 * 1000)

// allTime is a table span that cuts nothing off a query interval.
var allTime = Span{Min: math.MinInt64, Max: math.MaxInt64}

// mustNew builds a curve strategy by name.
func mustNew(t testing.TB, name string, cfg Config) Strategy {
	t.Helper()
	s, ok := New(name, cfg)
	if !ok {
		t.Fatalf("New(%q): unknown strategy", name)
	}
	return s
}

// mustNewAll builds several strategies with one configuration.
func mustNewAll(t testing.TB, cfg Config, names ...string) []Strategy {
	t.Helper()
	out := make([]Strategy, len(names))
	for i, n := range names {
		out[i] = mustNew(t, n, cfg)
	}
	return out
}

func coveredBy(ranges []kv.KeyRange, key []byte) bool {
	for _, r := range ranges {
		if r.Contains(key) {
			return true
		}
	}
	return false
}

func TestPeriodOf(t *testing.T) {
	cases := []struct {
		t    int64
		want int64
	}{
		{0, 0},
		{1, 0},
		{dayMs - 1, 0},
		{dayMs, 1},
		{10*dayMs + 5, 10},
		{-1, -1},
		{-dayMs, -1},
		{-dayMs - 1, -2},
	}
	for _, c := range cases {
		if got := periodOf(c.t, dayMs); got != c.want {
			t.Errorf("periodOf(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestEncodePeriodPreservesOrder(t *testing.T) {
	prev := uint32(0)
	first := true
	for _, n := range []int64{-1000, -2, -1, 0, 1, 2, 1000} {
		e := encodePeriod(n)
		if !first && e <= prev {
			t.Fatalf("encodePeriod not monotone at %d", n)
		}
		prev, first = e, false
	}
}

func TestPlanMaxCodeOverflow(t *testing.T) {
	// A code range ending at MaxUint64 must produce a half-open end at
	// the next prefix rather than wrapping to zero.
	toMax := [][]zorder.Range{{{Min: 5, Max: ^uint64(0)}}}
	ranges := Plan{shards: 2, periods: 1, codes: toMax}.KeyRanges(nil)
	r := ranges[1]
	if string(r.End) != string([]byte{0x02}) {
		t.Fatalf("end = %x, want prefix+1", r.End)
	}
	keyInRange := binary.BigEndian.AppendUint64([]byte{0x01}, ^uint64(0))
	if !r.Contains(keyInRange) {
		t.Fatal("max code key must be inside the range")
	}
	// All-0xFF prefix: open-ended.
	ranges = Plan{shards: 256, periods: 1, codes: toMax}.KeyRanges(nil)
	if r = ranges[255]; r.Start[0] != 0xFF || r.End != nil {
		t.Fatalf("range = %x..%x, want an open end under 0xFF", r.Start, r.End)
	}
}

func TestNextPrefix(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte{0x01}, []byte{0x02}},
		{[]byte{0x01, 0xFF}, []byte{0x02}},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte{0x01, 0x02}, []byte{0x01, 0x03}},
	}
	for _, c := range cases {
		got := nextPrefix(c.in)
		if !bytes.Equal(got, c.want) {
			t.Errorf("nextPrefix(%x) = %x, want %x", c.in, got, c.want)
		}
	}
}

func TestShardStability(t *testing.T) {
	// Same fid must always produce the same shard (update-enabled).
	for i := 0; i < 100; i++ {
		fid := []byte(fmt.Sprintf("rec-%d", i))
		a := shardOf(fid, 4)
		b := shardOf(fid, 4)
		if a != b {
			t.Fatal("shard not stable")
		}
		if a > 3 {
			t.Fatalf("shard %d out of range", a)
		}
	}
}

func TestShardDistribution(t *testing.T) {
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[shardOf([]byte(fmt.Sprintf("rec-%d", i)), 4)]++
	}
	for s, n := range counts {
		if n < 700 || n > 1300 {
			t.Errorf("shard %d has %d records, want ~1000", s, n)
		}
	}
}

func randPointRecord(rng *rand.Rand, i int) Record {
	p := geom.Point{Lng: rng.Float64()*360 - 180, Lat: rng.Float64()*180 - 90}
	return Record{
		FID:   []byte(fmt.Sprintf("fid-%06d", i)),
		Geom:  p,
		Start: rng.Int63n(30 * dayMs),
	}
}

func randTrajRecord(rng *rand.Rand, i int) Record {
	cx := rng.Float64()*300 - 150
	cy := rng.Float64()*140 - 70
	var pts []geom.Point
	for j := 0; j < 5; j++ {
		pts = append(pts, geom.Point{
			Lng: cx + rng.Float64()*0.1,
			Lat: cy + rng.Float64()*0.1,
		})
	}
	start := rng.Int63n(30 * dayMs)
	return Record{
		FID:   []byte(fmt.Sprintf("traj-%06d", i)),
		Geom:  &geom.LineString{Points: pts},
		Start: start,
		End:   start + rng.Int63n(dayMs), // up to one period long
	}
}

func randQuery(rng *rand.Rand) Query {
	cx := rng.Float64()*300 - 150
	cy := rng.Float64()*140 - 70
	w := rng.Float64()*4 + 0.01
	tmin := rng.Int63n(25 * dayMs)
	return Query{
		Window:  geom.NewMBR(cx-w, cy-w, cx+w, cy+w).Clip(geom.WorldMBR),
		HasTime: true,
		TMin:    tmin,
		TMax:    tmin + rng.Int63n(3*dayMs),
	}
}

func recordMatches(rec Record, q Query) bool {
	if !rec.Geom.MBR().Intersects(q.Window) {
		return false
	}
	if !q.HasTime {
		return true
	}
	if q.TMin > q.TMax {
		return false // an empty interval, even for a record that spans it
	}
	end := rec.End
	if end < rec.Start {
		end = rec.Start
	}
	return rec.Start <= q.TMax && end >= q.TMin
}

// TestStrategyNoFalseNegatives is the central correctness property of
// every indexing strategy: any record whose MBR and time span intersect
// the query must have its key covered by the planned ranges.
func TestStrategyNoFalseNegatives(t *testing.T) {
	cfg := Config{Shards: 4, Period: 24 * time.Hour}
	pointStrategies := mustNewAll(t, cfg, "z2", "z3", "z2t")
	trajStrategies := mustNewAll(t, cfg, "xz2", "xz3", "xz2t")

	rng := rand.New(rand.NewSource(2024))
	var points, trajs []Record
	for i := 0; i < 400; i++ {
		points = append(points, randPointRecord(rng, i))
		trajs = append(trajs, randTrajRecord(rng, i))
	}
	for iter := 0; iter < 60; iter++ {
		q := randQuery(rng)
		for _, s := range pointStrategies {
			ranges := s.Plan(q, allTime).KeyRanges(nil)
			for _, rec := range points {
				if !recordMatches(rec, q) {
					continue
				}
				key, err := s.Key(rec)
				if err != nil {
					t.Fatal(err)
				}
				if !coveredBy(ranges, key) {
					t.Fatalf("%s: record %s at %v t=%d not covered by %d ranges for %+v",
						s.Name(), rec.FID, rec.Geom.MBR(), rec.Start, len(ranges), q)
				}
			}
		}
		for _, s := range trajStrategies {
			ranges := s.Plan(q, allTime).KeyRanges(nil)
			for _, rec := range trajs {
				if !recordMatches(rec, q) {
					continue
				}
				key, err := s.Key(rec)
				if err != nil {
					t.Fatal(err)
				}
				if !coveredBy(ranges, key) {
					t.Fatalf("%s: record %s span %v t=[%d,%d] not covered for %+v",
						s.Name(), rec.FID, rec.Geom.MBR(), rec.Start, rec.End, q)
				}
			}
		}
	}
}

// TestZ2TSelectivity demonstrates the paper's core claim: for a small
// spatial window and a time window that covers a large share of a period,
// Z2T scans far fewer key space than Z3 (Fig. 4's motivation).
func TestZ2TSelectivity(t *testing.T) {
	cfg := Config{Shards: 1, Period: 24 * time.Hour}
	z3 := mustNew(t, "z3", cfg)
	z2t := mustNew(t, "z2t", cfg)
	// 1km x 1km window, 01:00-13:00 within one day (the paper's example).
	q := Query{
		Window:  geom.SquareAround(geom.Point{Lng: 116.40, Lat: 39.90}, 1000),
		HasTime: true,
		TMin:    1 * 60 * 60 * 1000,
		TMax:    13 * 60 * 60 * 1000,
	}
	span := func(ranges []kv.KeyRange) float64 {
		// Total covered key volume, approximated by the code spans.
		var total float64
		for _, r := range ranges {
			// Code portion begins after the prefix; compare the whole key
			// lexicographically via the first differing 8 bytes.
			total += keyRangeVolume(r)
		}
		return total
	}
	r3 := z3.Plan(q, allTime).KeyRanges(nil)
	r2t := z2t.Plan(q, allTime).KeyRanges(nil)
	if span(r2t) >= span(r3) {
		t.Fatalf("Z2T volume %g should be below Z3 volume %g", span(r2t), span(r3))
	}
}

// keyRangeVolume approximates the covered code volume of a key range by
// interpreting the final 8 bytes of start/end as the curve code.
func keyRangeVolume(r kv.KeyRange) float64 {
	tail := func(b []byte) float64 {
		if len(b) < 8 {
			return 0
		}
		var v uint64
		for _, x := range b[len(b)-8:] {
			v = v<<8 | uint64(x)
		}
		return float64(v)
	}
	return tail(r.End) - tail(r.Start)
}

// TestTimelessPlanIsTheSpan: a query without time bounds on a periodic
// key plans the table's whole span, exactly as the same query bounded by
// the span does, and nothing for a table that holds no rows.
func TestTimelessPlanIsTheSpan(t *testing.T) {
	span := Span{Min: 3*dayMs + 5, Max: 7*dayMs - 5}
	w := geom.SquareAround(geom.Point{Lng: 10, Lat: 10}, 5000)
	for _, s := range mustNewAll(t, Config{}, "z3", "xz3", "z2t", "xz2t") {
		timeless := s.Plan(Query{Window: w}, span).KeyRanges(nil)
		bounded := s.Plan(Query{Window: w, HasTime: true, TMin: span.Min, TMax: span.Max}, span).KeyRanges(nil)
		if len(timeless) == 0 || !reflect.DeepEqual(timeless, bounded) {
			t.Errorf("%s: time-less plan has %d ranges, span-bounded plan %d", s.Name(), len(timeless), len(bounded))
		}
		if n := s.Plan(Query{Window: w}, Span{Min: 1, Max: 0}).Len(); n != 0 {
			t.Errorf("%s: %d ranges planned for an empty table", s.Name(), n)
		}
	}
}

func TestSpatialPlanIgnoresTime(t *testing.T) {
	cfg := Config{}
	q := Query{Window: geom.SquareAround(geom.Point{Lng: 10, Lat: 10}, 5000)}
	for _, s := range mustNewAll(t, cfg, "z2", "xz2") {
		if ranges := s.Plan(q, Span{Min: 1, Max: 0}).KeyRanges(nil); len(ranges) == 0 {
			t.Fatalf("%s: empty plan", s.Name())
		}
	}
}

func TestKeyRejectsBadRecords(t *testing.T) {
	cfg := Config{}
	for _, s := range mustNewAll(t, cfg, "z2", "z2t", "xz2t") {
		if _, err := s.Key(Record{FID: []byte("x")}); err == nil {
			t.Errorf("%s: nil geometry should fail", s.Name())
		}
		if _, err := s.Key(Record{Geom: geom.Point{}}); err == nil {
			t.Errorf("%s: empty fid should fail", s.Name())
		}
	}
}

func TestNewByName(t *testing.T) {
	names := []string{"z2", "xz2", "z3", "xz3", "z2t", "xz2t", "attr"}
	for _, n := range names {
		s, ok := New(n, Config{})
		if !ok || s.Name() != n {
			t.Errorf("New(%q) = %v, %v", n, s, ok)
		}
	}
	if _, ok := New("rtree", Config{}); ok {
		t.Error("unknown strategy should not resolve")
	}
}

func TestDefaultFor(t *testing.T) {
	cases := []struct {
		point, temporal bool
		want            string
	}{
		{true, true, "z2t"},
		{true, false, "z2"},
		{false, true, "xz2t"},
		{false, false, "xz2"},
	}
	for _, c := range cases {
		if got := DefaultFor(c.point, c.temporal, Config{}).Name(); got != c.want {
			t.Errorf("DefaultFor(%v,%v) = %s, want %s", c.point, c.temporal, got, c.want)
		}
	}
}

func TestPlanPeriodCount(t *testing.T) {
	// A 3-day query against a 1-day period must visit >= 3 periods.
	cfg := Config{Shards: 1, Period: 24 * time.Hour}
	z2t := mustNew(t, "z2t", cfg)
	q := Query{
		Window:  geom.SquareAround(geom.Point{Lng: 10, Lat: 10}, 1000),
		HasTime: true,
		TMin:    0,
		TMax:    3*dayMs - 1,
	}
	ranges := z2t.Plan(q, allTime).KeyRanges(nil)
	periods := map[uint32]bool{}
	for _, r := range ranges {
		if len(r.Start) >= 5 {
			periods[uint32(r.Start[1])<<24|uint32(r.Start[2])<<16|uint32(r.Start[3])<<8|uint32(r.Start[4])] = true
		}
	}
	if len(periods) != 3 {
		t.Fatalf("plan visits %d periods, want 3", len(periods))
	}
}

func TestLongRecordsNeedMaxRecordPeriods(t *testing.T) {
	// A record spanning 2.5 periods is indexed under its start period
	// (Equ. 3); a query hitting only its tail is found iff
	// MaxRecordPeriods covers the span.
	line := &geom.LineString{Points: []geom.Point{{Lng: 10, Lat: 10}, {Lng: 10.1, Lat: 10.1}}}
	rec := Record{
		FID:   []byte("long"),
		Geom:  line,
		Start: 0,
		End:   dayMs*2 + dayMs/2,
	}
	q := Query{
		Window:  geom.NewMBR(9.9, 9.9, 10.2, 10.2),
		HasTime: true,
		TMin:    2*dayMs + 1, // tail period only
		TMax:    2*dayMs + 2,
	}
	day := 24 * time.Hour
	tight := mustNew(t, "xz2t", Config{Shards: 1, Period: day, MaxRecordPeriods: 1})
	wide := mustNew(t, "xz2t", Config{Shards: 1, Period: day, MaxRecordPeriods: 3})
	key, err := wide.Key(rec)
	if err != nil {
		t.Fatal(err)
	}
	tightRanges := tight.Plan(q, allTime).KeyRanges(nil)
	wideRanges := wide.Plan(q, allTime).KeyRanges(nil)
	if coveredBy(tightRanges, key) {
		t.Log("note: tight plan happened to cover the key (over-approximation)")
	}
	if !coveredBy(wideRanges, key) {
		t.Fatal("MaxRecordPeriods=3 must cover a 2.5-period record")
	}
}

func TestKeyDeterminism(t *testing.T) {
	cfg := Config{}
	rec := Record{FID: []byte("abc"), Geom: geom.Point{Lng: 1, Lat: 2}, Start: 12345}
	for _, s := range mustNewAll(t, cfg, "z2", "z3", "z2t") {
		k1, _ := s.Key(rec)
		k2, _ := s.Key(rec)
		if !bytes.Equal(k1, k2) {
			t.Errorf("%s: keys differ for identical record", s.Name())
		}
	}
}

func BenchmarkZ2TPlan(b *testing.B) {
	cfg := Config{Shards: 4, Period: 24 * time.Hour}
	s := mustNew(b, "z2t", cfg)
	q := Query{
		Window:  geom.SquareAround(geom.Point{Lng: 116.4, Lat: 39.9}, 3000),
		HasTime: true,
		TMin:    0,
		TMax:    dayMs - 1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(s.Plan(q, allTime).KeyRanges(nil)) == 0 {
			b.Fatal("empty plan")
		}
	}
}

func BenchmarkZ2TKey(b *testing.B) {
	s := mustNew(b, "z2t", Config{})
	rec := Record{FID: []byte("fid-123456"), Geom: geom.Point{Lng: 116.4, Lat: 39.9}, Start: 12345678}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Key(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// maxCodesPerWindow is the ceiling FuzzPlanBounded holds one window
// decomposition to; the most any of the four curves has produced over
// 10^5 random windows (degenerate to world-sized) is 219.
const maxCodesPerWindow = 1024

// FuzzPlanBounded: whatever the window and the time bounds — one-sided
// (an open bound is MinInt64 or MaxInt64), inverted, or absent — a plan
// never panics, never has more ranges than the table's span allows
// (periods in the span plus the look-back, times shards, times
// maxCodesPerWindow), and covers the key of a matching record that lies
// in the span. Spans start within ±2^50 ms and are up to 400 days long.
func FuzzPlanBounded(f *testing.F) {
	names := []string{"z2", "xz2", "z3", "xz3", "z2t", "xz2t"}
	const t0 = int64(1_500_000_000_000)
	for i := range names {
		// The statements that took the server down, on a one-row table:
		// time > x, time < x, BETWEEN inverted; then a time-less query and
		// a bounded one on a two-month table.
		f.Add(uint8(i), 116.4, 39.9, 0.03, 0.03, true, t0-100*dayMs, int64(math.MaxInt64), t0, uint16(0), int64(1))
		f.Add(uint8(i), 116.4, 39.9, 0.03, 0.03, true, int64(math.MinInt64), t0+100*dayMs, t0, uint16(0), int64(2))
		f.Add(uint8(i), 116.4, 39.9, 0.03, 0.03, true, t0+100*dayMs, t0-100*dayMs, t0, uint16(0), int64(3))
		f.Add(uint8(i), -180.0, 89.0, 0.5, 1.0, false, int64(0), int64(0), -5*dayMs, uint16(60), int64(4))
		f.Add(uint8(i), 179.9, -0.1, 0.2, 0.2, true, -2*dayMs, 3*dayMs-1, -5*dayMs, uint16(60), int64(5))
	}
	f.Fuzz(func(t *testing.T, which uint8, lng, lat, w, h float64, hasTime bool, tmin, tmax, spanMin int64, spanDays uint16, seed int64) {
		s := mustNew(t, names[int(which)%len(names)], Config{})
		coord := func(v float64) float64 { // NaN and ±Inf have no place on the plane
			if math.IsNaN(v) {
				return 0
			}
			return math.Max(-1000, math.Min(1000, v))
		}
		rng := rand.New(rand.NewSource(seed))
		spanMin %= 1 << 50
		span := Span{Min: spanMin, Max: spanMin + int64(spanDays%400)*dayMs + rng.Int63n(dayMs)}
		q := Query{
			Window:  geom.NewMBR(coord(lng), coord(lat), coord(lng)+coord(w), coord(lat)+coord(h)),
			HasTime: hasTime, TMin: tmin, TMax: tmax,
		}
		plan := s.Plan(q, span)
		ranges := plan.KeyRanges([]byte{7})
		if len(ranges) != plan.Len() {
			t.Fatalf("plan.Len() = %d, expands to %d ranges", plan.Len(), len(ranges))
		}
		const shards, lookBack = 4, 1 // Config{} defaults
		periods := periodOf(span.Max, dayMs) - periodOf(span.Min, dayMs) + 1 + lookBack
		if int64(len(ranges)) > periods*shards*maxCodesPerWindow {
			t.Fatalf("%d ranges for a table of %d periods", len(ranges), periods-lookBack)
		}
		// A record of the table, inside the window where the window is on
		// the map; extended records last up to one period (MaxRecordPeriods).
		in := q.Window.Clip(geom.WorldMBR)
		if !in.IsValid() {
			return
		}
		p := geom.Point{Lng: in.MinLng + rng.Float64()*in.Width(), Lat: in.MinLat + rng.Float64()*in.Height()}
		rec := Record{FID: []byte(fmt.Sprint("fid-", seed)), Geom: p}
		rec.Start = span.Min + rng.Int63n(span.Max-span.Min+1)
		rec.End = rec.Start
		if strings.HasPrefix(s.Name(), "xz") {
			rec.Geom = &geom.LineString{Points: []geom.Point{p, in.Center()}}
			rec.End += rng.Int63n(dayMs)
		}
		if !recordMatches(rec, q) {
			return
		}
		key, err := s.Key(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !coveredBy(ranges, append([]byte{7}, key...)) {
			t.Fatalf("%s: record %v t=[%d,%d] not covered by %d ranges for %+v in span %+v",
				s.Name(), rec.Geom.MBR(), rec.Start, rec.End, len(ranges), q, span)
		}
	})
}
