package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"just/internal/exec"
	"just/internal/geom"
)

// encodeValue is the stream's former per-value conversion, kept as the
// reference appendRow is checked against: geometry to WKT, st_series to
// [[lng,lat,t]...], bytes to base64.
func encodeValue(v any) any {
	switch x := v.(type) {
	case geom.Geometry:
		return map[string]any{"wkt": x.WKT()}
	case []geom.TPoint:
		pts := make([][3]float64, len(x))
		for i, p := range x {
			pts[i] = [3]float64{p.Lng, p.Lat, float64(p.T)}
		}
		return map[string]any{"st_series": pts}
	case []byte:
		return map[string]any{"bytes": base64.StdEncoding.EncodeToString(x)}
	default:
		return v
	}
}

// referenceLine encodes live row i of b as the stream once did: box the
// row, convert each value, json.Encoder.Encode.
func referenceLine(b *exec.ColumnBatch, i int) (string, error) {
	row := b.RowAt(i)
	for c, v := range row {
		row[c] = encodeValue(v)
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(row)
	return buf.String(), err
}

// checkBatch requires appendRow to write every live row of b exactly as
// referenceLine does, or to fail with the same error. The line buffer
// is reused from row to row, as the stream reuses it.
func checkBatch(t testing.TB, b *exec.ColumnBatch) {
	t.Helper()
	var line []byte
	for i := range b.Len() {
		want, wantErr := referenceLine(b, i)
		got, err := appendRow(line[:0], b, i)
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("row %d (%v): error %v, reference error %v", i, b.RowAt(i), err, wantErr)
			}
			continue
		}
		if string(got) != want {
			t.Fatalf("row %d (%v):\n got  %q\n want %q", i, b.RowAt(i), got, want)
		}
		line = got
	}
}

// allTypes has one column of every DataType.
var allTypes = exec.NewSchema(
	exec.Field{Name: "i", Type: exec.TypeInt},
	exec.Field{Name: "f", Type: exec.TypeFloat},
	exec.Field{Name: "s", Type: exec.TypeString},
	exec.Field{Name: "b", Type: exec.TypeBool},
	exec.Field{Name: "t", Type: exec.TypeTime},
	exec.Field{Name: "g", Type: exec.TypeGeometry},
	exec.Field{Name: "y", Type: exec.TypeBytes},
	exec.Field{Name: "st", Type: exec.TypeSTSeries},
	exec.Field{Name: "ts", Type: exec.TypeTSeries},
)

// typedBatch stores rows into typed vectors over allTypes, materializing
// only the columns in cols (nil: all of them).
func typedBatch(rows []exec.Row, cols []int) *exec.ColumnBatch {
	b := exec.NewColumnBatch(allTypes, len(rows))
	if cols == nil {
		for c := range allTypes.Len() {
			cols = append(cols, c)
		}
	}
	for _, r := range rows {
		p := b.Grow()
		for _, c := range cols {
			b.Col(c).Set(p, r[c])
		}
	}
	return b
}

// edgeFloats are the float64 values whose encoding has a rule of its
// own: both sides of the 'f'/'e' cut-overs at 1e-6 and 1e21, the
// "e-09" → "e-9" clean-up, signed zero and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 123456789.125, 1e20, -1e20,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, math.Nextafter(-1e-6, 0),
	1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1e-7, 1e-9, -1e-9, 1e-10,
	1e-100, 1e100, 5e-324, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, 116.40737, 39.91, 1 << 53, 1<<53 + 2,
}

// edgeStrings need escaping or are not valid UTF-8.
var edgeStrings = []string{
	"", "plain", "name-42", `"quoted"`, `back\slash`, "<a href='x'>&amp;</a>",
	"\x00\x01\x1f\t\n\r", "\x7f", "\xff\xfe", "a\xc3", "日本語", "  ",
	"é", "\U0001F600", "�",
}

// edgeTimes sit on both sides of the 2^53 cut-over of the st_series
// t encoding.
var edgeTimes = []int64{
	0, 1, -1, 1555200000000, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1 << 53),
	-(1 << 53) - 1, math.MaxInt64, math.MinInt64,
}

func TestRowEncodingMatchesEncodingJSON(t *testing.T) {
	poly := &geom.Polygon{Outer: []geom.Point{{Lng: 0, Lat: 0}, {Lng: 1, Lat: 0}, {Lng: 1, Lat: 1}},
		Holes: [][]geom.Point{{{Lng: 0.2, Lat: 0.2}, {Lng: 0.4, Lat: 0.2}, {Lng: 0.3, Lat: 0.3}}}}
	geoms := []geom.Geometry{
		geom.Point{Lng: 116.4, Lat: 39.9}, geom.Point{Lng: 1e-9, Lat: -1e22},
		geom.Point{Lng: math.NaN(), Lat: math.Inf(1)},
		&geom.LineString{Points: []geom.Point{{Lng: 1, Lat: 2}, {Lng: 3, Lat: 4.5}}},
		poly, &geom.MultiPoint{Points: []geom.Point{{Lng: -1, Lat: -2}}},
	}
	var rows []exec.Row
	for k := range 64 {
		r := exec.Row{
			int64(k) * 0x1fffffffffffff, edgeFloats[k%len(edgeFloats)],
			edgeStrings[k%len(edgeStrings)], k%2 == 0, edgeTimes[k%len(edgeTimes)],
			geoms[k%len(geoms)], []byte{byte(k), 0xff, 0x3e}[:k%4%3],
			[]geom.TPoint{{Point: geom.Point{Lng: edgeFloats[(k+3)%len(edgeFloats)], Lat: 39.9},
				T: edgeTimes[(k+5)%len(edgeTimes)]}}[:k%2],
			[]float64{edgeFloats[(k+7)%len(edgeFloats)], 2.5}[:k%3],
		}
		for c := range r {
			if (k+c)%7 == 0 {
				r[c] = nil // NULL
			}
		}
		rows = append(rows, r)
	}
	// Nil slices are values, not NULLs.
	rows = append(rows, exec.Row{int64(math.MinInt64), 0.0, "", false, int64(math.MaxInt64),
		geom.Point{}, []byte(nil), []geom.TPoint(nil), []float64(nil)})

	t.Run("typed", func(t *testing.T) { checkBatch(t, typedBatch(rows, nil)) })
	t.Run("unmaterialized", func(t *testing.T) { checkBatch(t, typedBatch(rows, []int{1, 2, 5, 7})) })
	t.Run("selection", func(t *testing.T) {
		b := typedBatch(rows, nil)
		var sel []int32
		for p := 1; p < len(rows); p += 3 {
			sel = append(sel, int32(p))
		}
		checkBatch(t, b.WithSel(sel))
		checkBatch(t, b.WithSel([]int32{}))
	})
	t.Run("dynamic", func(t *testing.T) {
		// Every column receives values of another type, so VectorOf
		// keeps them boxed.
		var mixed []exec.Row
		for k, r := range rows {
			m := make(exec.Row, len(r))
			for c := range r {
				m[c] = rows[(k+c+1)%len(rows)][(c+k)%len(r)]
			}
			mixed = append(mixed, m)
		}
		checkBatch(t, exec.BatchOf(allTypes, mixed))
		checkBatch(t, exec.BatchOf(allTypes, []exec.Row{{json.Number("12"), int32(3), map[string]int{"<": 1}}}))
	})
	t.Run("unencodable", func(t *testing.T) {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			r := exec.Row{int64(1), bad}
			checkBatch(t, exec.BatchOf(allTypes, []exec.Row{r}))
			r = exec.Row{int64(1), 2.0, "s", true, int64(3), nil, nil,
				[]geom.TPoint{{Point: geom.Point{Lng: 1, Lat: bad}, T: 4}}, []float64{bad}}
			checkBatch(t, typedBatch([]exec.Row{r}, []int{0, 1, 7}))
			checkBatch(t, typedBatch([]exec.Row{r}, []int{8}))
			r[0], r[2] = bad, bad // dynamic: a float in int and string columns
			checkBatch(t, exec.BatchOf(allTypes, []exec.Row{r}))
			if _, err := appendRow(nil, exec.BatchOf(allTypes, []exec.Row{r}), 0); err == nil {
				t.Fatalf("%v encoded without an error", bad)
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		randFloat := func() float64 {
			if rng.Intn(2) == 0 {
				return math.Float64frombits(rng.Uint64()) // may be NaN or ±Inf
			}
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
		}
		randString := func() string {
			b := make([]byte, rng.Intn(12))
			for i := range b {
				b[i] = byte(rng.Intn(256))
				if rng.Intn(4) > 0 {
					b[i] = byte(' ' + rng.Intn(95))
				}
			}
			return string(b)
		}
		rows := make([]exec.Row, 2000)
		for k := range rows {
			pts := make([]geom.TPoint, rng.Intn(3))
			for j := range pts {
				pts[j] = geom.TPoint{Point: geom.Point{Lng: randFloat(), Lat: randFloat()}, T: int64(rng.Uint64())}
			}
			rows[k] = exec.Row{int64(rng.Uint64()), randFloat(), randString(), rng.Intn(2) == 0,
				int64(rng.Uint64()) >> rng.Intn(64), geom.Point{Lng: randFloat(), Lat: randFloat()},
				[]byte(randString()), pts, []float64{randFloat()}}
		}
		checkBatch(t, typedBatch(rows, nil))
	})
}

func FuzzRowEncoding(f *testing.F) {
	f.Add(int64(1), 0.5, "name-1", []byte{1, 2, 3}, 116.4, int64(1<<53+1), true)
	f.Add(int64(-1), 1e-7, "<&>\"\\\x00\xff", []byte(nil), math.Inf(1), int64(math.MinInt64), false)
	f.Add(int64(math.MaxInt64), 1e21, " 日本", []byte{}, math.NaN(), int64(0), true)
	f.Fuzz(func(t *testing.T, i int64, x float64, s string, y []byte, lng float64, ts int64, flag bool) {
		row := exec.Row{i, x, s, flag, ts, geom.Point{Lng: lng, Lat: x},
			y, []geom.TPoint{{Point: geom.Point{Lng: lng, Lat: x}, T: ts}}, []float64{x, lng}}
		checkBatch(t, typedBatch([]exec.Row{row, row}, nil))
		// The same values boxed in dynamically typed columns.
		swapped := exec.Row{s, i, x, y, flag, ts, row[7], row[5], lng}
		checkBatch(t, exec.BatchOf(allTypes, []exec.Row{swapped, nil}))
	})
}
