package geom

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type identifies a geometry kind.
type Type uint8

// Geometry kinds supported by JUST.
const (
	TypePoint Type = iota + 1
	TypeLineString
	TypePolygon
	TypeMultiPoint
)

func (t Type) String() string {
	switch t {
	case TypePoint:
		return "POINT"
	case TypeLineString:
		return "LINESTRING"
	case TypePolygon:
		return "POLYGON"
	case TypeMultiPoint:
		return "MULTIPOINT"
	default:
		return fmt.Sprintf("GEOMETRY(%d)", uint8(t))
	}
}

// Geometry is the interface implemented by all spatial values stored in a
// JUST table.
type Geometry interface {
	// Type returns the geometry kind.
	Type() Type
	// MBR returns the minimum bounding rectangle.
	MBR() MBR
	// WKT returns the well-known-text representation.
	WKT() string
	// AppendWKT appends WKT() to dst and returns the extended buffer.
	AppendWKT(dst []byte) []byte
	// IsPoint reports whether the geometry is point-based; point-based
	// data is indexed with Z2/Z2T, non-point data with XZ2/XZT2.
	IsPoint() bool
}

// Type implements Geometry.
func (p Point) Type() Type { return TypePoint }

// MBR implements Geometry.
func (p Point) MBR() MBR { return MBR{p.Lng, p.Lat, p.Lng, p.Lat} }

// IsPoint implements Geometry.
func (p Point) IsPoint() bool { return true }

// WKT implements Geometry.
func (p Point) WKT() string { return string(p.AppendWKT(nil)) }

// AppendWKT implements Geometry.
func (p Point) AppendWKT(dst []byte) []byte {
	dst = append(dst, "POINT ("...)
	return append(appendCoord(dst, p), ')')
}

// LineString is an ordered sequence of at least two points.
type LineString struct {
	Points []Point
}

// Type implements Geometry.
func (l *LineString) Type() Type { return TypeLineString }

// IsPoint implements Geometry.
func (l *LineString) IsPoint() bool { return false }

// MBR implements Geometry.
func (l *LineString) MBR() MBR {
	if len(l.Points) == 0 {
		return MBR{}
	}
	m := l.Points[0].MBR()
	for _, p := range l.Points[1:] {
		m = m.ExtendPoint(p)
	}
	return m
}

// WKT implements Geometry.
func (l *LineString) WKT() string { return string(l.AppendWKT(nil)) }

// AppendWKT implements Geometry.
func (l *LineString) AppendWKT(dst []byte) []byte {
	dst = append(dst, "LINESTRING ("...)
	return append(appendCoordSeq(dst, l.Points), ')')
}

// Length returns the Euclidean length of the line in degrees.
func (l *LineString) Length() float64 {
	var sum float64
	for i := 1; i < len(l.Points); i++ {
		sum += EuclideanDistance(l.Points[i-1], l.Points[i])
	}
	return sum
}

// Polygon is a simple polygon: one outer ring (closed implicitly) and
// optional holes.
type Polygon struct {
	Outer []Point
	Holes [][]Point
}

// Type implements Geometry.
func (p *Polygon) Type() Type { return TypePolygon }

// IsPoint implements Geometry.
func (p *Polygon) IsPoint() bool { return false }

// MBR implements Geometry.
func (p *Polygon) MBR() MBR {
	if len(p.Outer) == 0 {
		return MBR{}
	}
	m := p.Outer[0].MBR()
	for _, pt := range p.Outer[1:] {
		m = m.ExtendPoint(pt)
	}
	return m
}

// WKT implements Geometry.
func (p *Polygon) WKT() string { return string(p.AppendWKT(nil)) }

// AppendWKT implements Geometry.
func (p *Polygon) AppendWKT(dst []byte) []byte {
	dst = append(dst, "POLYGON (("...)
	dst = append(appendRing(dst, p.Outer), ')')
	for _, h := range p.Holes {
		dst = append(dst, ", ("...)
		dst = append(appendRing(dst, h), ')')
	}
	return append(dst, ')')
}

// ContainsPoint reports whether pt lies inside the polygon (ray casting;
// boundary points may be reported either way).
func (p *Polygon) ContainsPoint(pt Point) bool {
	if !ringContains(p.Outer, pt) {
		return false
	}
	for _, h := range p.Holes {
		if ringContains(h, pt) {
			return false
		}
	}
	return true
}

// MultiPoint is an unordered set of points.
type MultiPoint struct {
	Points []Point
}

// Type implements Geometry.
func (m *MultiPoint) Type() Type { return TypeMultiPoint }

// IsPoint implements Geometry.
func (m *MultiPoint) IsPoint() bool { return false }

// MBR implements Geometry.
func (m *MultiPoint) MBR() MBR {
	if len(m.Points) == 0 {
		return MBR{}
	}
	r := m.Points[0].MBR()
	for _, p := range m.Points[1:] {
		r = r.ExtendPoint(p)
	}
	return r
}

// WKT implements Geometry.
func (m *MultiPoint) WKT() string { return string(m.AppendWKT(nil)) }

// AppendWKT implements Geometry.
func (m *MultiPoint) AppendWKT(dst []byte) []byte {
	dst = append(dst, "MULTIPOINT ("...)
	return append(appendCoordSeq(dst, m.Points), ')')
}

// PolygonFromMBR converts an MBR to a closed rectangular polygon.
func PolygonFromMBR(m MBR) *Polygon {
	return &Polygon{Outer: []Point{
		{m.MinLng, m.MinLat},
		{m.MaxLng, m.MinLat},
		{m.MaxLng, m.MaxLat},
		{m.MinLng, m.MaxLat},
	}}
}

func ringContains(ring []Point, pt Point) bool {
	n := len(ring)
	if n < 3 {
		return false
	}
	inside := false
	j := n - 1
	for i := 0; i < n; i++ {
		pi, pj := ring[i], ring[j]
		if (pi.Lat > pt.Lat) != (pj.Lat > pt.Lat) {
			x := (pj.Lng-pi.Lng)*(pt.Lat-pi.Lat)/(pj.Lat-pi.Lat) + pi.Lng
			if pt.Lng < x {
				inside = !inside
			}
		}
		j = i
	}
	return inside
}

// SegmentsIntersect reports whether segments ab and cd share a point.
func SegmentsIntersect(a, b, c, d Point) bool {
	d1 := cross(c, d, a)
	d2 := cross(c, d, b)
	d3 := cross(a, b, c)
	d4 := cross(a, b, d)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return (d1 == 0 && onSegment(c, d, a)) ||
		(d2 == 0 && onSegment(c, d, b)) ||
		(d3 == 0 && onSegment(a, b, c)) ||
		(d4 == 0 && onSegment(a, b, d))
}

// LineIntersectsMBR reports whether any segment of line l intersects m.
func LineIntersectsMBR(l *LineString, m MBR) bool {
	for _, p := range l.Points {
		if m.Contains(p) {
			return true
		}
	}
	corners := [4]Point{
		{m.MinLng, m.MinLat}, {m.MaxLng, m.MinLat},
		{m.MaxLng, m.MaxLat}, {m.MinLng, m.MaxLat},
	}
	for i := 1; i < len(l.Points); i++ {
		a, b := l.Points[i-1], l.Points[i]
		for j := 0; j < 4; j++ {
			if SegmentsIntersect(a, b, corners[j], corners[(j+1)%4]) {
				return true
			}
		}
	}
	return false
}

// IntersectsMBR reports whether geometry g truly intersects m (an exact
// refinement after the MBR-level index filter).
func IntersectsMBR(g Geometry, m MBR) bool {
	switch v := g.(type) {
	case Point:
		return m.Contains(v)
	case *LineString:
		return LineIntersectsMBR(v, m)
	case *MultiPoint:
		for _, p := range v.Points {
			if m.Contains(p) {
				return true
			}
		}
		return false
	case *Polygon:
		if !m.Intersects(v.MBR()) {
			return false
		}
		// Any rectangle corner inside the polygon, or any polygon vertex
		// inside the rectangle, or any edge crossing.
		for _, p := range v.Outer {
			if m.Contains(p) {
				return true
			}
		}
		rect := PolygonFromMBR(m)
		for _, c := range rect.Outer {
			if v.ContainsPoint(c) {
				return true
			}
		}
		ring := append([]Point{}, v.Outer...)
		ring = append(ring, v.Outer[0])
		rc := append([]Point{}, rect.Outer...)
		rc = append(rc, rect.Outer[0])
		for i := 1; i < len(ring); i++ {
			for j := 1; j < len(rc); j++ {
				if SegmentsIntersect(ring[i-1], ring[i], rc[j-1], rc[j]) {
					return true
				}
			}
		}
		return false
	default:
		return g.MBR().Intersects(m)
	}
}

// DistanceToGeometry returns the minimum Euclidean-degree distance from q
// to geometry g.
func DistanceToGeometry(q Point, g Geometry) float64 {
	switch v := g.(type) {
	case Point:
		return EuclideanDistance(q, v)
	case *LineString:
		best := math.Inf(1)
		for i := 1; i < len(v.Points); i++ {
			d := pointSegmentDistance(q, v.Points[i-1], v.Points[i])
			if d < best {
				best = d
			}
		}
		if len(v.Points) == 1 {
			return EuclideanDistance(q, v.Points[0])
		}
		return best
	case *MultiPoint:
		best := math.Inf(1)
		for _, p := range v.Points {
			if d := EuclideanDistance(q, p); d < best {
				best = d
			}
		}
		return best
	case *Polygon:
		if v.ContainsPoint(q) {
			return 0
		}
		best := math.Inf(1)
		ring := append([]Point{}, v.Outer...)
		if len(ring) > 0 {
			ring = append(ring, v.Outer[0])
		}
		for i := 1; i < len(ring); i++ {
			if d := pointSegmentDistance(q, ring[i-1], ring[i]); d < best {
				best = d
			}
		}
		return best
	default:
		return g.MBR().MinDistance(q)
	}
}

func pointSegmentDistance(q, a, b Point) float64 {
	abx, aby := b.Lng-a.Lng, b.Lat-a.Lat
	l2 := abx*abx + aby*aby
	if l2 == 0 {
		return EuclideanDistance(q, a)
	}
	t := ((q.Lng-a.Lng)*abx + (q.Lat-a.Lat)*aby) / l2
	t = math.Max(0, math.Min(1, t))
	return EuclideanDistance(q, Point{a.Lng + t*abx, a.Lat + t*aby})
}

func cross(a, b, c Point) float64 {
	return (b.Lng-a.Lng)*(c.Lat-a.Lat) - (b.Lat-a.Lat)*(c.Lng-a.Lng)
}

func onSegment(a, b, p Point) bool {
	return math.Min(a.Lng, b.Lng) <= p.Lng && p.Lng <= math.Max(a.Lng, b.Lng) &&
		math.Min(a.Lat, b.Lat) <= p.Lat && p.Lat <= math.Max(a.Lat, b.Lat)
}

// appendCoord appends "lng lat", each in the shortest 'f' form.
func appendCoord(dst []byte, p Point) []byte {
	dst = strconv.AppendFloat(dst, p.Lng, 'f', -1, 64)
	dst = append(dst, ' ')
	return strconv.AppendFloat(dst, p.Lat, 'f', -1, 64)
}

func appendCoordSeq(dst []byte, pts []Point) []byte {
	for i, p := range pts {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendCoord(dst, p)
	}
	return dst
}

// appendRing appends a ring's coordinates, closing it if it is open.
func appendRing(dst []byte, pts []Point) []byte {
	dst = appendCoordSeq(dst, pts)
	if len(pts) > 0 && pts[0] != pts[len(pts)-1] {
		dst = appendCoord(append(dst, ", "...), pts[0])
	}
	return dst
}

// ErrBadWKT reports an unparsable well-known-text string.
var ErrBadWKT = errors.New("geom: malformed WKT")

// ParseWKT parses a WKT string into a Geometry. Supported kinds: POINT,
// LINESTRING, POLYGON, MULTIPOINT.
func ParseWKT(s string) (Geometry, error) {
	s = strings.TrimSpace(s)
	upper := strings.ToUpper(s)
	switch {
	case strings.HasPrefix(upper, "POINT"):
		body, err := wktBody(s, len("POINT"))
		if err != nil {
			return nil, err
		}
		pts, err := parseCoordSeq(body)
		if err != nil || len(pts) != 1 {
			return nil, fmt.Errorf("%w: %q", ErrBadWKT, s)
		}
		return pts[0], nil
	case strings.HasPrefix(upper, "LINESTRING"):
		body, err := wktBody(s, len("LINESTRING"))
		if err != nil {
			return nil, err
		}
		pts, err := parseCoordSeq(body)
		if err != nil || len(pts) < 2 {
			return nil, fmt.Errorf("%w: %q", ErrBadWKT, s)
		}
		return &LineString{Points: pts}, nil
	case strings.HasPrefix(upper, "MULTIPOINT"):
		body, err := wktBody(s, len("MULTIPOINT"))
		if err != nil {
			return nil, err
		}
		body = strings.ReplaceAll(strings.ReplaceAll(body, "(", ""), ")", "")
		pts, err := parseCoordSeq(body)
		if err != nil || len(pts) == 0 {
			return nil, fmt.Errorf("%w: %q", ErrBadWKT, s)
		}
		return &MultiPoint{Points: pts}, nil
	case strings.HasPrefix(upper, "POLYGON"):
		body, err := wktBody(s, len("POLYGON"))
		if err != nil {
			return nil, err
		}
		rings, err := parseRings(body)
		if err != nil || len(rings) == 0 {
			return nil, fmt.Errorf("%w: %q", ErrBadWKT, s)
		}
		p := &Polygon{Outer: rings[0]}
		if len(rings) > 1 {
			p.Holes = rings[1:]
		}
		return p, nil
	default:
		return nil, fmt.Errorf("%w: unknown geometry in %q", ErrBadWKT, s)
	}
}

func wktBody(s string, skip int) (string, error) {
	rest := strings.TrimSpace(s[skip:])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return "", fmt.Errorf("%w: %q", ErrBadWKT, s)
	}
	return rest[1 : len(rest)-1], nil
}

func parseCoordSeq(body string) ([]Point, error) {
	parts := strings.Split(body, ",")
	pts := make([]Point, 0, len(parts))
	for _, part := range parts {
		fields := strings.Fields(strings.TrimSpace(part))
		if len(fields) < 2 {
			return nil, ErrBadWKT
		}
		lng, err1 := strconv.ParseFloat(fields[0], 64)
		lat, err2 := strconv.ParseFloat(fields[1], 64)
		if err1 != nil || err2 != nil {
			return nil, ErrBadWKT
		}
		pts = append(pts, Point{Lng: lng, Lat: lat})
	}
	return pts, nil
}

func parseRings(body string) ([][]Point, error) {
	var rings [][]Point
	depth := 0
	start := -1
	for i, c := range body {
		switch c {
		case '(':
			if depth == 0 {
				start = i + 1
			}
			depth++
		case ')':
			depth--
			if depth == 0 {
				pts, err := parseCoordSeq(body[start:i])
				if err != nil {
					return nil, err
				}
				// Drop the repeated closing point if present.
				if len(pts) > 1 && pts[0] == pts[len(pts)-1] {
					pts = pts[:len(pts)-1]
				}
				rings = append(rings, pts)
			}
		}
	}
	if depth != 0 {
		return nil, ErrBadWKT
	}
	return rings, nil
}
