package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewMBRNormalizesCorners(t *testing.T) {
	m := NewMBR(10, 20, -10, -20)
	want := MBR{-10, -20, 10, 20}
	if m != want {
		t.Fatalf("NewMBR = %v, want %v", m, want)
	}
}

func TestMBRContains(t *testing.T) {
	m := MBR{0, 0, 10, 10}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 5}, true},
		{Point{0, 0}, true},
		{Point{10, 10}, true},
		{Point{10.01, 5}, false},
		{Point{-0.01, 5}, false},
		{Point{5, 11}, false},
	}
	for _, c := range cases {
		if got := m.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMBRIntersects(t *testing.T) {
	m := MBR{0, 0, 10, 10}
	cases := []struct {
		o    MBR
		want bool
	}{
		{MBR{5, 5, 15, 15}, true},
		{MBR{10, 10, 20, 20}, true}, // touching corner
		{MBR{11, 11, 20, 20}, false},
		{MBR{-5, -5, -1, -1}, false},
		{MBR{2, 2, 3, 3}, true}, // contained
		{MBR{-5, 2, 15, 3}, true},
	}
	for _, c := range cases {
		if got := m.Intersects(c.o); got != c.want {
			t.Errorf("Intersects(%v) = %v, want %v", c.o, got, c.want)
		}
		if got := c.o.Intersects(m); got != c.want {
			t.Errorf("Intersects not symmetric for %v", c.o)
		}
	}
}

func TestMBRExtendProperty(t *testing.T) {
	f := func(a1, b1, a2, b2, a3, b3, a4, b4 float64) bool {
		m1 := NewMBR(clampLng(a1), clampLat(b1), clampLng(a2), clampLat(b2))
		m2 := NewMBR(clampLng(a3), clampLat(b3), clampLng(a4), clampLat(b4))
		e := m1.Extend(m2)
		return e.ContainsMBR(m1) && e.ContainsMBR(m2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMBRQuadSplitCoversParent(t *testing.T) {
	m := MBR{-10, -20, 30, 40}
	quads := m.QuadSplit()
	var total float64
	for _, q := range quads {
		if !m.ContainsMBR(q) {
			t.Errorf("quadrant %v not inside parent %v", q, m)
		}
		total += q.Area()
	}
	if math.Abs(total-m.Area()) > 1e-9 {
		t.Errorf("quadrant areas sum to %g, want %g", total, m.Area())
	}
}

func TestMBRMinDistance(t *testing.T) {
	m := MBR{0, 0, 10, 10}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{5, 5}, 0},
		{Point{-3, 5}, 3},
		{Point{5, 14}, 4},
		{Point{13, 14}, 5},
	}
	for _, c := range cases {
		if got := m.MinDistance(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MinDistance(%v) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestMinDistanceIsLowerBoundProperty(t *testing.T) {
	// For any point inside the MBR, MinDistance(q) <= distance(q, point).
	f := func(qlng, qlat, plng, plat float64) bool {
		q := Point{clampLng(qlng), clampLat(qlat)}
		p := Point{clampLng(plng), clampLat(plat)}
		m := NewMBR(p.Lng-1, p.Lat-1, p.Lng+1, p.Lat+1)
		return m.MinDistance(q) <= EuclideanDistance(q, p)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHaversine(t *testing.T) {
	// Beijing to Shanghai is roughly 1070 km.
	bj := Point{116.40, 39.90}
	sh := Point{121.47, 31.23}
	d := HaversineMeters(bj, sh)
	if d < 1.0e6 || d > 1.15e6 {
		t.Fatalf("Haversine(BJ,SH) = %g m, want ~1.07e6", d)
	}
	if HaversineMeters(bj, bj) != 0 {
		t.Fatal("distance to self should be 0")
	}
}

func TestSquareAround(t *testing.T) {
	p := Point{116.40, 39.90}
	m := SquareAround(p, 1000)
	if !m.Contains(p) {
		t.Fatal("square does not contain its center")
	}
	w := HaversineMeters(Point{m.MinLng, p.Lat}, Point{m.MaxLng, p.Lat})
	h := HaversineMeters(Point{p.Lng, m.MinLat}, Point{p.Lng, m.MaxLat})
	if math.Abs(w-1000) > 20 || math.Abs(h-1000) > 20 {
		t.Fatalf("square sides = %g x %g m, want ~1000", w, h)
	}
}

func TestPolygonContainsPoint(t *testing.T) {
	poly := &Polygon{Outer: []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}}
	if !poly.ContainsPoint(Point{5, 5}) {
		t.Error("center should be inside")
	}
	if poly.ContainsPoint(Point{15, 5}) {
		t.Error("outside point reported inside")
	}
	withHole := &Polygon{
		Outer: poly.Outer,
		Holes: [][]Point{{{4, 4}, {6, 4}, {6, 6}, {4, 6}}},
	}
	if withHole.ContainsPoint(Point{5, 5}) {
		t.Error("point in hole reported inside")
	}
	if !withHole.ContainsPoint(Point{1, 1}) {
		t.Error("point outside hole reported outside")
	}
}

func TestSegmentsIntersect(t *testing.T) {
	cases := []struct {
		a, b, c, d Point
		want       bool
	}{
		{Point{0, 0}, Point{10, 10}, Point{0, 10}, Point{10, 0}, true},
		{Point{0, 0}, Point{1, 1}, Point{2, 2}, Point{3, 3}, false},
		{Point{0, 0}, Point{5, 5}, Point{5, 5}, Point{9, 1}, true}, // shared endpoint
		{Point{0, 0}, Point{10, 0}, Point{5, 0}, Point{5, 5}, true},
	}
	for i, c := range cases {
		if got := SegmentsIntersect(c.a, c.b, c.c, c.d); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestLineIntersectsMBR(t *testing.T) {
	m := MBR{0, 0, 10, 10}
	crossing := &LineString{Points: []Point{{-5, 5}, {15, 5}}}
	if !LineIntersectsMBR(crossing, m) {
		t.Error("crossing line should intersect")
	}
	outside := &LineString{Points: []Point{{-5, -5}, {-1, -1}}}
	if LineIntersectsMBR(outside, m) {
		t.Error("outside line should not intersect")
	}
	inside := &LineString{Points: []Point{{1, 1}, {2, 2}}}
	if !LineIntersectsMBR(inside, m) {
		t.Error("contained line should intersect")
	}
}

func TestWKTRoundTrip(t *testing.T) {
	geoms := []Geometry{
		Point{116.5, 39.25},
		&LineString{Points: []Point{{0, 0}, {1, 1}, {2, 0.5}}},
		&Polygon{Outer: []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}}},
		&Polygon{Outer: []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}},
			Holes: [][]Point{{{1, 1}, {2, 1}, {2, 2}}}},
		&MultiPoint{Points: []Point{{1, 2}, {3, 4}}},
	}
	for _, g := range geoms {
		s := g.WKT()
		if a := string(g.AppendWKT(nil)); a != s {
			t.Errorf("AppendWKT(nil) = %q, WKT() = %q", a, s)
		}
		if a := string(g.AppendWKT([]byte("x="))); a != "x="+s {
			t.Errorf("AppendWKT(prefix) = %q", a)
		}
		back, err := ParseWKT(s)
		if err != nil {
			t.Fatalf("ParseWKT(%q): %v", s, err)
		}
		if back.WKT() != s {
			t.Errorf("round trip %q -> %q", s, back.WKT())
		}
		if back.Type() != g.Type() {
			t.Errorf("type changed: %v -> %v", g.Type(), back.Type())
		}
	}
}

func TestParseWKTErrors(t *testing.T) {
	bad := []string{
		"", "POINT", "POINT ()", "POINT (1)", "CIRCLE (1 2)",
		"LINESTRING (1 1)", "POLYGON (1 1, 2 2)", "POINT (a b)",
	}
	for _, s := range bad {
		if _, err := ParseWKT(s); err == nil {
			t.Errorf("ParseWKT(%q) should fail", s)
		}
	}
}

func TestParseWKTPolygonWithHole(t *testing.T) {
	g, err := ParseWKT("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := g.(*Polygon)
	if !ok {
		t.Fatalf("got %T, want *Polygon", g)
	}
	if len(p.Holes) != 1 {
		t.Fatalf("holes = %d, want 1", len(p.Holes))
	}
	if p.ContainsPoint(Point{5, 5}) {
		t.Error("hole point should be outside")
	}
}

func TestDistanceToGeometry(t *testing.T) {
	q := Point{0, 0}
	cases := []struct {
		g    Geometry
		want float64
	}{
		{Point{3, 4}, 5},
		{&LineString{Points: []Point{{0, 2}, {4, 2}}}, 2},
		{&MultiPoint{Points: []Point{{9, 9}, {0, 1}}}, 1},
		{&Polygon{Outer: []Point{{-1, -1}, {1, -1}, {1, 1}, {-1, 1}}}, 0},
		{&Polygon{Outer: []Point{{2, -1}, {4, -1}, {4, 1}, {2, 1}}}, 2},
	}
	for i, c := range cases {
		if got := DistanceToGeometry(q, c.g); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("case %d: got %g, want %g", i, got, c.want)
		}
	}
}

func TestIntersectsMBRRefinement(t *testing.T) {
	m := MBR{0, 0, 10, 10}
	// An L-shaped line whose MBR intersects m but geometry does not.
	l := &LineString{Points: []Point{{-5, 12}, {12, 12}, {12, -5}}}
	if !l.MBR().Intersects(m) {
		t.Fatal("test setup: MBRs should intersect")
	}
	if IntersectsMBR(l, m) {
		t.Error("line geometry should not intersect window")
	}
	// A polygon fully containing the window.
	big := &Polygon{Outer: []Point{{-20, -20}, {20, -20}, {20, 20}, {-20, 20}}}
	if !IntersectsMBR(big, m) {
		t.Error("containing polygon should intersect")
	}
}

func TestMBRClip(t *testing.T) {
	m := MBR{0, 0, 10, 10}
	c := m.Clip(MBR{5, 5, 20, 20})
	if c != (MBR{5, 5, 10, 10}) {
		t.Fatalf("Clip = %v", c)
	}
}

func clampLng(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 180)
}

func clampLat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 90)
}
