package table

import (
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"just/internal/exec"
	"just/internal/geom"
)

// TestCodecEncodingPinned pins the bytes Codec.Encode writes for rows of
// every column type: nulls, length prefixes of one to three bytes, and
// lz4-compressed fields (gzip and zlib are left out: their bytes belong
// to the Go release). A change to the record format, or to how a record
// is assembled, that alters a stored byte fails here.
func TestCodecEncodingPinned(t *testing.T) {
	codec := NewCodec([]Column{
		{Name: "fid", Type: exec.TypeInt, PrimaryKey: true},
		{Name: "time", Type: exec.TypeTime},
		{Name: "name", Type: exec.TypeString},
		{Name: "geom", Type: exec.TypeGeometry},
		{Name: "score", Type: exec.TypeFloat},
		{Name: "flag", Type: exec.TypeBool},
		{Name: "payload", Type: exec.TypeBytes},
		{Name: "plain_gps", Type: exec.TypeSTSeries},
		{Name: "series", Type: exec.TypeTSeries},
		{Name: "gps", Type: exec.TypeSTSeries, Compress: "lz4"},
		{Name: "note", Type: exec.TypeString, Compress: "lz4"},
		{Name: "shape", Type: exec.TypeGeometry},
	})
	rng := rand.New(rand.NewSource(57))
	pts := func(n int) []geom.TPoint {
		out := make([]geom.TPoint, n)
		for i := range out {
			out[i] = geom.TPoint{Point: geom.Point{Lng: 116 + rng.Float64(), Lat: 39 + rng.Float64()}, T: int64(i*3000 + rng.Intn(50))}
		}
		return out
	}
	ring := func(n int) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			out[i] = geom.Point{Lng: rng.NormFloat64(), Lat: rng.NormFloat64()}
		}
		return out
	}
	crc := crc32.NewIEEE()
	total := 0
	for i := 0; i < 300; i++ {
		shapes := []geom.Geometry{
			&geom.LineString{Points: ring(1 + rng.Intn(40))},
			&geom.MultiPoint{Points: ring(1 + rng.Intn(5))},
			&geom.Polygon{Outer: ring(4 + rng.Intn(60)), Holes: [][]geom.Point{ring(4)}},
		}
		series := make([]float64, rng.Intn(30))
		for j := range series {
			series[j] = rng.ExpFloat64()
		}
		row := exec.Row{
			int64(rng.Intn(1<<20)) - 1<<19, int64(i) * 3600000,
			strings.Repeat("rider-", rng.Intn(60)), geom.Point{Lng: 116 + rng.Float64(), Lat: 39 + rng.Float64()},
			rng.NormFloat64(), i%3 == 0, []byte(strings.Repeat("p", rng.Intn(200))),
			pts(rng.Intn(4) * rng.Intn(1200)), series,
			pts(rng.Intn(300)), strings.Repeat("note ", rng.Intn(400)), shapes[i%3],
		}
		for j := range row {
			if rng.Intn(7) == 0 {
				row[j] = nil
			}
		}
		data, err := codec.Encode(row)
		if err != nil {
			t.Fatal(err)
		}
		crc.Write(data)
		total += len(data)
	}
	if got, want := crc.Sum32(), uint32(0x6f429efe); total != 4751553 || got != want {
		t.Fatalf("300 rows encode to %d bytes, crc %#08x; pinned 4751553 bytes, crc %#08x", total, got, want)
	}
}
