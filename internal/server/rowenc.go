package server

import (
	"encoding/base64"
	"encoding/json"
	"math"
	"strconv"

	"just/internal/exec"
	"just/internal/geom"
)

// appendRow appends live row i of b to dst as one JSON line, read from
// the column vectors without boxing. The bytes are those json.Encoder
// writes for the boxed row with geometries as {"wkt":…}, []byte as
// {"bytes":<base64>} and st_series as {"st_series":[[lng,lat,t],…]}.
// A value JSON cannot carry (NaN, ±Inf) returns encoding/json's error;
// dst then holds a partial line.
func appendRow(dst []byte, b *exec.ColumnBatch, i int) ([]byte, error) {
	p := b.Live(i)
	dst = append(dst, '[')
	for c := range b.Schema.Len() {
		if c > 0 {
			dst = append(dst, ',')
		}
		v := b.Vec(c)
		if v.Nulls == nil || v.Nulls[p] {
			dst = append(dst, "null"...)
			continue
		}
		var err error
		switch v.Type {
		case exec.TypeInt, exec.TypeTime:
			dst = strconv.AppendInt(dst, v.Ints[p], 10)
		case exec.TypeFloat:
			dst, err = appendFloat(dst, v.Floats[p])
		case exec.TypeString:
			dst = appendString(dst, v.Strs[p])
		case exec.TypeBool:
			dst = strconv.AppendBool(dst, v.Bools[p])
		default:
			dst, err = appendValue(dst, v.Any[p])
		}
		if err != nil {
			return dst, err
		}
	}
	return append(dst, ']', '\n'), nil
}

// appendValue appends a boxed value: the wire forms above, and
// json.Marshal for anything else (t_series, dynamically typed columns).
func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case geom.Geometry:
		// WKT is letters, digits, spaces and ".,-+()": nothing to escape.
		dst = x.AppendWKT(append(dst, `{"wkt":"`...))
		return append(dst, `"}`...), nil
	case []byte:
		dst = base64.StdEncoding.AppendEncode(append(dst, `{"bytes":"`...), x)
		return append(dst, `"}`...), nil
	case []geom.TPoint:
		dst = append(dst, `{"st_series":[`...)
		for j, pt := range x {
			if j > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendFloat(append(dst, '['), pt.Lng); err != nil {
				return dst, err
			}
			if dst, err = appendFloat(append(dst, ','), pt.Lat); err != nil {
				return dst, err
			}
			dst = append(dst, ',')
			// float64(T) is exact up to 2^53, where its 'f' digits are
			// T's own.
			if pt.T >= -1<<53 && pt.T <= 1<<53 {
				dst = strconv.AppendInt(dst, pt.T, 10)
			} else {
				dst, _ = appendFloat(dst, float64(pt.T))
			}
			dst = append(dst, ']')
		}
		return append(dst, "]}"...), nil
	}
	out, err := json.Marshal(v)
	return append(dst, out...), err
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, or the 'e' form below 1e-6 and from 1e21 up with "e-09"
// cut to "e-9". NaN and ±Inf return json.Marshal's error.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendString appends s as a JSON string. Printable ASCII other than
// the quote, backslash and HTML characters is copied as is; anything
// else goes through json.Marshal, so its escapes stay encoding/json's.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			out, _ := json.Marshal(s)
			return append(dst, out...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
