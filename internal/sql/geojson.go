package sql

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"just/internal/exec"
	"just/internal/geom"
)

// loadGeoJSON implements `LOAD geojson:<path> TO geomesa:<table> ...`:
// it reads a FeatureCollection, exposes each feature's properties as
// source columns plus a `geometry` column, and applies the same CONFIG
// mapping and FILTER as the CSV loader. (The paper's data source layer
// lists CSV/GPX/KML/GeoJSON files; GeoJSON is the richest of those.)
func (s *Session) loadGeoJSON(st *LoadStmt) (*Result, error) {
	data, err := os.ReadFile(st.Src)
	if err != nil {
		return nil, fmt.Errorf("sql: LOAD geojson: %w", err)
	}
	var fc geoJSONCollection
	if err := json.Unmarshal(data, &fc); err != nil {
		return nil, fmt.Errorf("sql: LOAD geojson: %w", err)
	}
	if fc.Type != "FeatureCollection" {
		return nil, fmt.Errorf("sql: LOAD geojson: not a FeatureCollection (type %q)", fc.Type)
	}
	// Source schema: union of property names (strings sorted for
	// determinism) plus the geometry pseudo-column.
	propSet := map[string]bool{}
	for _, f := range fc.Features {
		for k := range f.Properties {
			propSet[k] = true
		}
	}
	var propNames []string
	for k := range propSet {
		propNames = append(propNames, k)
	}
	sort.Strings(propNames)
	fields := make([]exec.Field, 0, len(propNames)+1)
	for _, n := range propNames {
		fields = append(fields, exec.Field{Name: n, Type: exec.TypeString})
	}
	fields = append(fields, exec.Field{Name: "geometry", Type: exec.TypeGeometry})
	srcSchema := exec.NewSchema(fields...)

	dst, err := s.engine.OpenTable(s.user, st.Dst)
	if err != nil {
		return nil, err
	}
	cfg, err := compileLoadConfig(st, srcSchema)
	if err != nil {
		return nil, err
	}

	var rows []exec.Row
	for _, f := range fc.Features {
		if cfg.limit > 0 && len(rows) >= cfg.limit {
			break
		}
		g, err := f.Geometry.toGeom()
		if err != nil {
			return nil, fmt.Errorf("sql: LOAD geojson: %w", err)
		}
		src := make(exec.Row, len(fields))
		for i, n := range propNames {
			if v, ok := f.Properties[n]; ok {
				src[i] = jsonValue(v)
			}
		}
		src[len(fields)-1] = g
		row, err := cfg.apply(dst.Desc.Columns, src)
		if err != nil {
			return nil, err
		}
		if row == nil {
			continue
		}
		rows = append(rows, row)
	}
	if err := s.engine.BulkInsert(dst.Desc.User, dst.Desc.Name, rows); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("loaded %d features from %s into %s", len(rows), st.Src, st.Dst)}, nil
}

type geoJSONCollection struct {
	Type     string           `json:"type"`
	Features []geoJSONFeature `json:"features"`
}

type geoJSONFeature struct {
	Type       string          `json:"type"`
	Properties map[string]any  `json:"properties"`
	Geometry   geoJSONGeometry `json:"geometry"`
}

type geoJSONGeometry struct {
	Type        string          `json:"type"`
	Coordinates json.RawMessage `json:"coordinates"`
}

func (g geoJSONGeometry) toGeom() (geom.Geometry, error) {
	switch g.Type {
	case "Point":
		var c [2]float64
		if err := json.Unmarshal(g.Coordinates, &c); err != nil {
			return nil, err
		}
		return geom.Point{Lng: c[0], Lat: c[1]}, nil
	case "LineString":
		var cs [][2]float64
		if err := json.Unmarshal(g.Coordinates, &cs); err != nil {
			return nil, err
		}
		pts := make([]geom.Point, len(cs))
		for i, c := range cs {
			pts[i] = geom.Point{Lng: c[0], Lat: c[1]}
		}
		return &geom.LineString{Points: pts}, nil
	case "Polygon":
		var rings [][][2]float64
		if err := json.Unmarshal(g.Coordinates, &rings); err != nil {
			return nil, err
		}
		if len(rings) == 0 {
			return nil, fmt.Errorf("empty polygon")
		}
		conv := func(ring [][2]float64) []geom.Point {
			pts := make([]geom.Point, 0, len(ring))
			for _, c := range ring {
				pts = append(pts, geom.Point{Lng: c[0], Lat: c[1]})
			}
			// GeoJSON rings repeat the first point; drop the closure.
			if len(pts) > 1 && pts[0] == pts[len(pts)-1] {
				pts = pts[:len(pts)-1]
			}
			return pts
		}
		p := &geom.Polygon{Outer: conv(rings[0])}
		for _, h := range rings[1:] {
			p.Holes = append(p.Holes, conv(h))
		}
		return p, nil
	case "MultiPoint":
		var cs [][2]float64
		if err := json.Unmarshal(g.Coordinates, &cs); err != nil {
			return nil, err
		}
		pts := make([]geom.Point, len(cs))
		for i, c := range cs {
			pts[i] = geom.Point{Lng: c[0], Lat: c[1]}
		}
		return &geom.MultiPoint{Points: pts}, nil
	default:
		return nil, fmt.Errorf("unsupported GeoJSON geometry %q", g.Type)
	}
}

// jsonValue converts a decoded JSON property to engine conventions.
func jsonValue(v any) any {
	switch x := v.(type) {
	case float64:
		if x == float64(int64(x)) {
			return int64(x)
		}
		return x
	case string, bool, nil:
		return x
	default:
		return fmt.Sprintf("%v", x)
	}
}
