package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The row scanner is held to encoding/json: every line reads as
// json.Unmarshal reads it into an any, and every stream as the
// json.Decoder the SDK used before reads it.

const header = "{\"columns\":[\"a\"]}\n"

// sdkRead reads a stream with the SDK.
func sdkRead(stream []byte) (rows [][]any, err error) {
	rs, err := newResultSet(io.NopCloser(bytes.NewReader(stream)))
	if err != nil {
		return nil, err
	}
	for rs.HasNext() {
		row, err := rs.Next()
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, rs.Err()
}

// decoderRead reads a stream as the SDK did with encoding/json's
// Decoder: the reference the scanner replaces.
func decoderRead(stream []byte) (rows [][]any, err error) {
	dec := json.NewDecoder(bytes.NewReader(stream))
	var hdr streamLine
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("client: bad response: %w", err)
	}
	if hdr.Error != "" {
		return nil, fmt.Errorf("client: server error: %s", hdr.Error)
	}
	for {
		var line any
		if err := dec.Decode(&line); err != nil {
			return rows, fmt.Errorf("client: result stream ended without its terminal line: %w", err)
		}
		switch x := line.(type) {
		case []any:
			rows = append(rows, x)
			continue
		case map[string]any:
			if msg, ok := x["error"].(string); ok {
				return rows, fmt.Errorf("client: server error: %s", msg)
			}
			return rows, nil
		}
		return rows, fmt.Errorf("bad result line %v", line)
	}
}

// rowLines are the row forms appendRow writes: every scalar, the
// integers and floats at JSON's edges, strings with escapes, invalid
// UTF-8 and non-ASCII text, and the {"wkt"}, {"bytes"} and
// {"st_series"} objects.
var rowLines = []string{
	`[null,1,"a",true,false]`,
	`[9007199254740993,-9223372036854775808,9223372036854775807,-9007199254740993]`,
	`[1e+21,-1e+21,1e-7,1.5e-7,-0,0,5e-324,1.7976931348623157e+308,0.1,116.41234567]`,
	`["<&>","\"\\\/\b\f\n\r\t","\u65e5","\ud83d\ude00","\ud800x"]`,
	`["` + "\xff\xfe" + `","a` + "\xed\xa0\x80" + `","日本","😀","` + "\x7f" + `",""]`,
	`[{"wkt":"POINT (116.4 39.9)"},{"wkt":"POLYGON ((1 2, 3 2, 3 4, 1 4, 1 2))"},{"bytes":"AQID"},{"bytes":""}]`,
	`[{"st_series":[[116.4,39.9,1546300800000],[1,-2.5,9007199254740993],[0,0,-1]]},{"st_series":[]}]`,
	`[]`,
	`[[],{},[[]],[1.5]]`,
	`["name-1",1546300800000,{"wkt":"POINT (116.41 39.9)"}]`,
}

// TestRowsMatchEncodingJSON: every form appendRow writes, in a stream
// that ends well, with a server error, cut between lines or inside one,
// reads as encoding/json read it, and each row line as json.Unmarshal
// reads it.
func TestRowsMatchEncodingJSON(t *testing.T) {
	body := header + strings.Join(rowLines, "\n") + "\n"
	streams := map[string]string{
		"total":            body + "{\"total\":9}\n",
		"total, no \\n":    body + `{"total":9}`,
		"error":            body + "{\"total\":3,\"error\":\"deadline exceeded\",\"code\":\"deadline\"}\n",
		"error alone":      body + "{\"error\":\"json: unsupported value: NaN\"}\n",
		"cut between rows": body,
		"cut in a row":     body + `[1,{"wkt":"POI`,
		"empty result":     header + "{\"total\":0}\n",
		"message":          "{\"message\":\"ok\"}\n{\"total\":0}\n",
		"header only":      header,
		"server error":     "{\"error\":\"no such table\"}\n",
		"not json":         "not json",
		"empty":            "",
	}
	for name, s := range streams {
		t.Run(name, func(t *testing.T) {
			got, gerr := sdkRead([]byte(s))
			want, werr := decoderRead([]byte(s))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rows differ:\n sdk  %#v\n json %#v", got, want)
			}
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("Err = %v, encoding/json read %v", gerr, werr)
			}
			if strings.Contains(name, "error") && gerr.Error() != werr.Error() {
				t.Fatalf("Err = %q, want %q", gerr, werr)
			}
		})
	}
	for _, line := range rowLines {
		var want any
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		rows, err := sdkRead([]byte(header + line + "\n{\"total\":1}\n"))
		if err != nil || len(rows) != 1 || !reflect.DeepEqual(rows[0], want) {
			t.Fatalf("%s read as %#v (%v), json.Unmarshal as %#v", line, rows, err, want)
		}
	}
}

// TestRandomRowsMatchEncodingJSON: rows json.Marshal writes from random
// values (the bytes appendRow writes for them) read back as
// json.Unmarshal reads them.
func TestRandomRowsMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var value func(depth int) any
	value = func(depth int) any {
		switch k := rng.Intn(9); {
		case k == 0:
			return nil
		case k == 1:
			return rng.Intn(2) == 0
		case k == 2:
			return int64(rng.Uint64()) >> rng.Intn(64)
		case k == 3:
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(80)-40))
		case k == 4:
			b := make([]byte, rng.Intn(8))
			for i := range b {
				b[i] = byte(rng.Intn(256))
				if rng.Intn(3) > 0 {
					b[i] = byte(' ' + rng.Intn(95))
				}
			}
			return string(b)
		case k == 5:
			return map[string]any{"bytes": []byte(strconv.Itoa(rng.Int()))}
		case depth > 2:
			return map[string]any{"wkt": fmt.Sprintf("POINT (%g %g)", rng.Float64()*180, rng.Float64()*90)}
		}
		v := make([]any, rng.Intn(5))
		for i := range v {
			v[i] = value(depth + 1)
		}
		if rng.Intn(2) == 0 {
			return map[string]any{"st_series": v}
		}
		return v
	}
	var stream bytes.Buffer
	var want [][]any
	stream.WriteString(header)
	for range 2000 {
		row := make([]any, 1+rng.Intn(8))
		for i := range row {
			row[i] = value(0)
		}
		line, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		var back []any
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatal(err)
		}
		want = append(want, back)
		stream.Write(append(line, '\n'))
	}
	stream.WriteString("{\"total\":2000}\n")
	got, err := sdkRead(stream.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("row %d read as %#v, json.Unmarshal as %#v", i, got[i], want[i])
			}
		}
		t.Fatalf("%d rows read, want %d", len(got), len(want))
	}
}

// exactLength reports the first slice in v whose capacity exceeds its
// length.
func exactLength(v any) error {
	switch x := v.(type) {
	case []any:
		if cap(x) != len(x) {
			return fmt.Errorf("slice of len %d has cap %d: %v", len(x), cap(x), x)
		}
		for _, e := range x {
			if err := exactLength(e); err != nil {
				return err
			}
		}
	case map[string]any:
		for _, e := range x {
			if err := exactLength(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestRowSlicesExactLength: the scanner allocates the row, each
// st_series and each point at its final length.
func TestRowSlicesExactLength(t *testing.T) {
	var r lineReader
	lines := append([]string{trajLine(300), orderLine}, rowLines[:3]...)
	for _, line := range append(lines, rowLines[5:]...) {
		row := r.row([]byte(line))
		if row == nil {
			t.Fatalf("%.60s… left to encoding/json", line)
		}
		if err := exactLength(row); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLongLines: a line longer than the reader's buffer reads whole.
func TestLongLines(t *testing.T) {
	long := trajLine(10000)
	rows, err := sdkRead([]byte(header + long + "\n[1]\n" + long + "\n{\"total\":3}\n"))
	var want []any
	json.Unmarshal([]byte(long), &want)
	if err != nil || len(rows) != 3 || !reflect.DeepEqual(rows[0], want) || !reflect.DeepEqual(rows[2], want) {
		t.Fatalf("%d rows, err %v", len(rows), err)
	}
}

// FuzzResultLine: a line json.Unmarshal accepts reads as the values it
// yields; a line it rejects ends the stream with an error.
func FuzzResultLine(f *testing.F) {
	for _, line := range rowLines {
		f.Add([]byte(line))
	}
	for _, line := range []string{`[1] [2]`, `[ 1 ]`, "[1]\r", `[01]`, `[1.]`, `[-]`, `[1e400]`, `[.5]`, `[+1]`,
		`[NaN]`, `[tru]`, `["a":1]`, `[{"a" :1}]`, `[{"a":1,"a":2}]`, `[1,]`, `[,1]`, `{"total":1}`, `{"error":"x"}`,
		`"row"`, `7`, `null`, strings.Repeat("[", 40) + strings.Repeat("]", 40), `[1e-400,-0.0e0,1E+2]`,
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001)} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if bytes.IndexByte(line, '\n') >= 0 {
			t.Skip("one line")
		}
		var want any
		werr := json.Unmarshal(line, &want)
		rows, err := sdkRead([]byte(header + string(line) + "\n{\"total\":1}\n"))
		wantRow, isRow := want.([]any)
		switch {
		case werr != nil:
			if err == nil || len(rows) != 0 {
				t.Fatalf("json.Unmarshal rejects %q (%v); the SDK read %#v, %v", line, werr, rows, err)
			}
		case isRow:
			if err != nil || len(rows) != 1 || !reflect.DeepEqual(rows[0], wantRow) {
				t.Fatalf("%q: SDK read %#v (%v), json.Unmarshal %#v", line, rows, err, wantRow)
			}
		default:
			m, isObject := want.(map[string]any)
			msg, isErr := m["error"].(string)
			if len(rows) != 0 || (err != nil) != (isErr || !isObject) {
				t.Fatalf("%q: SDK read %#v, %v; want no rows and error %q", line, rows, err, msg)
			}
		}
		var r lineReader
		if row := r.row(line); row != nil {
			if err := exactLength(row); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// trajLine is a trajectory-plugin row of n points as the server writes
// it for SELECT *: a random walk on the st_series codec's 1e-7° grid,
// one fix every 10–20 s.
func trajLine(n int) string {
	var b strings.Builder
	b.WriteString(`["traj-000017",{"wkt":"POLYGON ((116.30512 39.85117, 116.41779 39.85117, 116.41779 39.96305, 116.30512 39.96305, 116.30512 39.85117))"},`)
	b.WriteString(`{"wkt":"POINT (116.30512 39.85117)"},{"wkt":"POINT (116.41779 39.96305)"},1546300800000,1546301099000,{"st_series":[`)
	rng := rand.New(rand.NewSource(int64(n)))
	lng, lat, ts := 116.30512, 39.85117, int64(1546300800000)
	for i := range n {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%s,%s,%d]", strconv.FormatFloat(math.Round(lng*1e7)/1e7, 'f', -1, 64),
			strconv.FormatFloat(math.Round(lat*1e7)/1e7, 'f', -1, 64), ts)
		lng += (rng.Float64() - 0.3) * 1e-3
		lat += (rng.Float64() - 0.3) * 1e-3
		ts += 10000 + rng.Int63n(10000)
	}
	b.WriteString("]}]")
	return b.String()
}

// orderLine is an order_st row: fid, time and point.
const orderLine = `[183407,1546342712000,{"wkt":"POINT (116.4123871 39.9071624)"}]`

// BenchmarkResultSetDecode reads a result stream of trajectory rows
// (300 points each) and one of order rows, with the SDK and with the
// encoding/json Decoder the SDK used before.
func BenchmarkResultSetDecode(b *testing.B) {
	for _, shape := range []struct {
		name string
		line string
		rows int
	}{{"traj", trajLine(300), 8}, {"order", orderLine, 100}} {
		stream := []byte(header + strings.Repeat(shape.line+"\n", shape.rows) + "{\"total\":1}\n")
		for _, reader := range []struct {
			name string
			read func([]byte) ([][]any, error)
		}{{"sdk", sdkRead}, {"encoding-json", decoderRead}} {
			b.Run(shape.name+"/"+reader.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(stream)))
				for range b.N {
					if rows, err := reader.read(stream); err != nil || len(rows) != shape.rows {
						b.Fatalf("%d rows, %v", len(rows), err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.rows), "ns/row")
			})
		}
	}
}
