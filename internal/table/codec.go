package table

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"just/internal/compress"
	"just/internal/exec"
	"just/internal/geom"
)

// ErrBadRow reports an undecodable stored row.
var ErrBadRow = errors.New("table: corrupt row encoding")

// Codec serializes rows of one schema, applying the paper's per-field
// compression mechanism (Section IV-D): columns flagged
// `compress=gzip|zip|lz4` have their encoded bytes compressed before
// storage, which shrinks big fields like a trajectory's GPS list and
// cuts the disk IO a query pays to read them back. lz4 trades a little
// ratio for an order of magnitude faster decompression — the right
// default for hot scan columns.
type Codec struct {
	cols   []Column
	schema *exec.Schema // for the one-row batches Decode boxes rows out of
}

// NewCodec builds a codec for the column list.
func NewCodec(cols []Column) *Codec {
	return &Codec{cols: cols, schema: (&Desc{Columns: cols}).Schema()}
}

// Encode serializes row (which must match the codec's arity):
// [nullBitmap][field...], each field length-prefixed. The record is
// built in one slice: the bitmap is reserved at its front, and each
// field is appended in place and then prefixed with its length.
func (c *Codec) Encode(row exec.Row) ([]byte, error) {
	if len(row) != len(c.cols) {
		return nil, fmt.Errorf("table: row arity %d != schema %d", len(row), len(c.cols))
	}
	bitmap := (len(c.cols) + 7) / 8
	size := bitmap
	for _, v := range row {
		size += sizeHint(v)
	}
	out := make([]byte, bitmap, size)
	for i, col := range c.cols {
		if row[i] == nil {
			out[i/8] |= 1 << (i % 8)
			continue
		}
		start := len(out)
		var err error
		if col.Type == exec.TypeSTSeries && col.Compress != "" {
			// The paper's compression mechanism for GPS lists: delta
			// encoding, then the field compressor below.
			pts, ok := row[i].([]geom.TPoint)
			if !ok {
				return nil, fmt.Errorf("table: column %q: %v", col.Name, typeErr(col.Type, row[i]))
			}
			out = appendSTSeries(out, pts, true)
		} else if out, err = appendValue(out, col.Type, row[i]); err != nil {
			return nil, fmt.Errorf("table: column %q: %w", col.Name, err)
		}
		if col.Compress != "" {
			field, err := compressField(col.Compress, out[start:])
			if err != nil {
				return nil, err
			}
			out = append(out[:start], field...)
		}
		out = prefixLen(out, start)
	}
	return out, nil
}

// sizeHint guesses a field's encoded size with its length prefix, enough
// for the scalar types and a point, so that an order row's record is
// built without growing.
func sizeHint(v any) int {
	switch x := v.(type) {
	case string:
		return binary.MaxVarintLen32 + len(x)
	case []byte:
		return binary.MaxVarintLen32 + len(x)
	case geom.Point:
		return 18
	default:
		return 1 + binary.MaxVarintLen64
	}
}

// prefixLen inserts before out[start:] its length as a uvarint.
func prefixLen(out []byte, start int) []byte {
	var lb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lb[:], uint64(len(out)-start))
	out = append(out, lb[:n]...)
	copy(out[start+n:], out[start:len(out)-n])
	copy(out[start:], lb[:n])
	return out
}

// Decode deserializes a stored row.
func (c *Codec) Decode(data []byte) (exec.Row, error) {
	return c.DecodeProjected(data, nil)
}

// DecodeProjected deserializes only the columns marked in needed
// (nil = every column): unneeded fields are skipped over by their
// length prefix without decompression or decoding, which is what lets a
// projected query over a trajectory table never pay the gzip cost of
// its GPS list. Skipped columns are left nil in the returned row.
func (c *Codec) DecodeProjected(data []byte, needed []bool) (exec.Row, error) {
	// One walker parses the record format: DecodeIntoBatch. A row is a
	// one-row batch boxed at the edge.
	b := exec.NewColumnBatch(c.schema, 1)
	if err := c.DecodeIntoBatch(b, b.Grow(), data, needed, nil); err != nil {
		return nil, err
	}
	return b.RowAt(0), nil
}

// DecodeIntoBatch decodes the needed columns of one encoded row into
// the batch's column vectors at physical row ri (allocated beforehand
// with b.Grow). Scalar columns land in the typed vectors without
// boxing; unneeded fields are skipped by their length prefix without
// decompression or decoding. It is the one function that walks the
// record format. Calling it again on the same row with a
// disjoint needed mask fills further columns — the late-materialization
// second pass for rows that survived the filter.
//
// interns, when non-nil, supplies a per-column string dictionary: a
// string column with a dictionary set resolves each value to one
// canonical string (one allocation per distinct value, not per row).
// Dictionaries are not safe for concurrent use; callers give each scan
// task its own.
func (c *Codec) DecodeIntoBatch(b *exec.ColumnBatch, ri int, data []byte, needed []bool, interns []*compress.Dict) error {
	nb := (len(c.cols) + 7) / 8
	if len(data) < nb {
		return ErrBadRow
	}
	bitmap := data[:nb]
	rest := data[nb:]
	for i, col := range c.cols {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			continue // null: vectors default to NULL at every row
		}
		l, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < l {
			return ErrBadRow
		}
		field := rest[n : n+int(l)]
		rest = rest[n+int(l):]
		if needed != nil && !needed[i] {
			continue
		}
		v := b.Col(i)
		var itn *compress.Dict
		if interns != nil {
			itn = interns[i]
		}
		if col.Compress != "" {
			buf := fieldBufPool.Get().(*bytes.Buffer)
			buf.Reset()
			if err := decompressInto(buf, col.Compress, field); err != nil {
				fieldBufPool.Put(buf)
				return err
			}
			err := decodeFieldInto(v, ri, col, buf.Bytes(), itn)
			fieldBufPool.Put(buf)
			if err != nil {
				return err
			}
			continue
		}
		if err := decodeFieldInto(v, ri, col, field, itn); err != nil {
			return err
		}
	}
	return nil
}

// decodeFieldInto decodes one field into vector v at row ri, unboxed
// for the scalar types. itn, when non-nil, interns string values.
func decodeFieldInto(v *exec.Vector, ri int, col Column, field []byte, itn *compress.Dict) error {
	switch col.Type {
	case exec.TypeInt, exec.TypeTime:
		x, n := binary.Varint(field)
		if n <= 0 {
			return ErrBadRow
		}
		v.Nulls[ri] = false
		v.Ints[ri] = x
	case exec.TypeFloat:
		if len(field) != 8 {
			return ErrBadRow
		}
		v.Nulls[ri] = false
		v.Floats[ri] = math.Float64frombits(binary.LittleEndian.Uint64(field))
	case exec.TypeString:
		v.Nulls[ri] = false
		if itn != nil {
			v.Strs[ri] = itn.Intern(field)
		} else {
			v.Strs[ri] = string(field)
		}
	case exec.TypeBool:
		if len(field) != 1 {
			return ErrBadRow
		}
		v.Nulls[ri] = false
		v.Bools[ri] = field[0] == 1
	default:
		val, err := decodeValue(col.Type, field)
		if err != nil {
			return fmt.Errorf("table: column %q: %w", col.Name, err)
		}
		v.Set(ri, val)
	}
	return nil
}

// DecodeTimeBounds extracts the record's [start, end] time from an
// encoded row without decoding anything else — the SSTable writer's
// zone-map extractor. endIdx may be -1 for point records (end = start).
// ok is false when the row has no usable time (NULL, corrupt), which
// the caller must treat as "block unprunable".
func (c *Codec) DecodeTimeBounds(data []byte, timeIdx, endIdx int) (tmin, tmax int64, ok bool) {
	nb := (len(c.cols) + 7) / 8
	if timeIdx < 0 || len(data) < nb {
		return 0, 0, false
	}
	bitmap := data[:nb]
	rest := data[nb:]
	var haveMin, haveMax bool
	for i, col := range c.cols {
		if i > timeIdx && i > endIdx {
			break
		}
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			if i == timeIdx || i == endIdx {
				return 0, 0, false
			}
			continue
		}
		l, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < l {
			return 0, 0, false
		}
		field := rest[n : n+int(l)]
		rest = rest[n+int(l):]
		if i != timeIdx && i != endIdx {
			continue
		}
		if col.Compress != "" {
			return 0, 0, false // compressed time column: not worth inflating
		}
		x, vn := binary.Varint(field)
		if vn <= 0 {
			return 0, 0, false
		}
		if i == timeIdx {
			tmin, haveMin = x, true
			if endIdx < 0 {
				tmax, haveMax = x, true
			}
		}
		if i == endIdx {
			tmax, haveMax = x, true
		}
	}
	return tmin, tmax, haveMin && haveMax
}

// fieldBufPool provides the scratch buffer every compressed field read
// inflates into; decodeValue copies out of it before it returns to the
// pool. The gzip/zlib/lz4 stream state itself is pooled inside
// internal/compress, shared with the SSTable block and WAL paths.
var fieldBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func compressField(method string, data []byte) ([]byte, error) {
	switch method {
	case "lz4":
		// The frame's leading 0x4C magic is disjoint from the gzip
		// (0x1f) and zlib (0x78) stream magics, so decompressInto can
		// dispatch on the stored bytes alone.
		return compress.CompressLZ4Frame(nil, data), nil
	case "gzip":
		var buf bytes.Buffer
		if err := compress.CompressGzip(&buf, data); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	case "zip":
		var buf bytes.Buffer
		if err := compress.CompressZlib(&buf, data); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	default:
		return nil, fmt.Errorf("table: unknown compression %q", method)
	}
}

// decompressInto inflates a compressed field into dst using the pooled
// decompressors in internal/compress. The stored bytes are
// self-describing — gzip streams open with 0x1f, zlib with 0x78, lz4
// frames with 0x4C 0x5A — so dispatch sniffs the data rather than
// trusting the declared method: a column migrated from `compress=gzip`
// to `compress=lz4` keeps its old rows readable with no rewrite.
func decompressInto(dst *bytes.Buffer, method string, data []byte) error {
	var err error
	switch {
	case len(data) >= 1 && data[0] == 0x1f:
		err = compress.DecompressGzipTo(dst, data)
	case len(data) >= 1 && data[0] == 0x78:
		err = compress.DecompressZlibTo(dst, data)
	case compress.IsLZ4Frame(data):
		err = compress.DecompressLZ4FrameTo(dst, data)
	default:
		switch method {
		case "gzip":
			err = compress.DecompressGzipTo(dst, data)
		case "zip":
			err = compress.DecompressZlibTo(dst, data)
		case "lz4":
			err = compress.DecompressLZ4FrameTo(dst, data)
		default:
			return fmt.Errorf("table: unknown compression %q", method)
		}
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRow, err)
	}
	return nil
}

func appendValue(dst []byte, t exec.DataType, v any) ([]byte, error) {
	switch t {
	case exec.TypeInt, exec.TypeTime:
		x, ok := v.(int64)
		if !ok {
			return dst, typeErr(t, v)
		}
		return binary.AppendVarint(dst, x), nil
	case exec.TypeFloat:
		x, ok := v.(float64)
		if !ok {
			if i, iok := v.(int64); iok {
				x = float64(i)
			} else {
				return dst, typeErr(t, v)
			}
		}
		return appendF64(dst, x), nil
	case exec.TypeString:
		x, ok := v.(string)
		if !ok {
			return dst, typeErr(t, v)
		}
		return append(dst, x...), nil
	case exec.TypeBytes:
		x, ok := v.([]byte)
		if !ok {
			return dst, typeErr(t, v)
		}
		return append(dst, x...), nil
	case exec.TypeBool:
		x, ok := v.(bool)
		if !ok {
			return dst, typeErr(t, v)
		}
		if x {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case exec.TypeGeometry:
		g, ok := v.(geom.Geometry)
		if !ok {
			return dst, typeErr(t, v)
		}
		return appendGeometry(dst, g), nil
	case exec.TypeSTSeries:
		pts, ok := v.([]geom.TPoint)
		if !ok {
			return dst, typeErr(t, v)
		}
		return appendSTSeries(dst, pts, false), nil
	case exec.TypeTSeries:
		xs, ok := v.([]float64)
		if !ok {
			return dst, typeErr(t, v)
		}
		dst = binary.AppendUvarint(dst, uint64(len(xs)))
		for _, x := range xs {
			dst = appendF64(dst, x)
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("table: unsupported type %v", t)
	}
}

// decodeValue decodes a field of one of the boxed (any-backed) column
// types; decodeFieldInto handles the scalar types in place.
func decodeValue(t exec.DataType, data []byte) (any, error) {
	switch t {
	case exec.TypeBytes:
		return append([]byte(nil), data...), nil
	case exec.TypeGeometry:
		g, _, err := decodeGeometry(data)
		return g, err
	case exec.TypeSTSeries:
		return decodeSTSeries(data)
	case exec.TypeTSeries:
		n, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < n*8 {
			return nil, ErrBadRow
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[sz+i*8:]))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("table: unsupported type %v", t)
	}
}

func typeErr(t exec.DataType, v any) error {
	return fmt.Errorf("value %T does not match column type %v", v, t)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func readF64(data []byte) (float64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, ErrBadRow
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), data[8:], nil
}

func appendPointSeq(dst []byte, pts []geom.Point) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	for _, p := range pts {
		dst = appendF64(appendF64(dst, p.Lng), p.Lat)
	}
	return dst
}

func decodePointSeq(data []byte) ([]geom.Point, []byte, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, nil, ErrBadRow
	}
	data = data[sz:]
	pts := make([]geom.Point, n)
	var err error
	for i := range pts {
		if pts[i].Lng, data, err = readF64(data); err != nil {
			return nil, nil, err
		}
		if pts[i].Lat, data, err = readF64(data); err != nil {
			return nil, nil, err
		}
	}
	return pts, data, nil
}

func appendGeometry(dst []byte, g geom.Geometry) []byte {
	dst = append(dst, byte(g.Type()))
	switch v := g.(type) {
	case geom.Point:
		dst = appendF64(appendF64(dst, v.Lng), v.Lat)
	case *geom.LineString:
		dst = appendPointSeq(dst, v.Points)
	case *geom.MultiPoint:
		dst = appendPointSeq(dst, v.Points)
	case *geom.Polygon:
		dst = binary.AppendUvarint(dst, uint64(1+len(v.Holes)))
		dst = appendPointSeq(dst, v.Outer)
		for _, h := range v.Holes {
			dst = appendPointSeq(dst, h)
		}
	}
	return dst
}

func decodeGeometry(data []byte) (geom.Geometry, []byte, error) {
	if len(data) < 1 {
		return nil, nil, ErrBadRow
	}
	t := geom.Type(data[0])
	data = data[1:]
	switch t {
	case geom.TypePoint:
		lng, rest, err := readF64(data)
		if err != nil {
			return nil, nil, err
		}
		lat, rest, err := readF64(rest)
		if err != nil {
			return nil, nil, err
		}
		return geom.Point{Lng: lng, Lat: lat}, rest, nil
	case geom.TypeLineString:
		pts, rest, err := decodePointSeq(data)
		if err != nil {
			return nil, nil, err
		}
		return &geom.LineString{Points: pts}, rest, nil
	case geom.TypeMultiPoint:
		pts, rest, err := decodePointSeq(data)
		if err != nil {
			return nil, nil, err
		}
		return &geom.MultiPoint{Points: pts}, rest, nil
	case geom.TypePolygon:
		nr, sz := binary.Uvarint(data)
		if sz <= 0 || nr == 0 {
			return nil, nil, ErrBadRow
		}
		data = data[sz:]
		rings := make([][]geom.Point, nr)
		var err error
		for i := range rings {
			if rings[i], data, err = decodePointSeq(data); err != nil {
				return nil, nil, err
			}
		}
		p := &geom.Polygon{Outer: rings[0]}
		if len(rings) > 1 {
			p.Holes = rings[1:]
		}
		return p, data, nil
	default:
		return nil, nil, fmt.Errorf("%w: geometry type %d", ErrBadRow, t)
	}
}

// stSeriesScale fixes GPS coordinates at 1e-7 degrees (~1 cm), well
// below GPS receiver accuracy; it lets the delta format store coordinate
// deltas as small varints.
const stSeriesScale = 1e7

// st_series wire formats. Plain columns use the standard serialization
// (raw float64 coordinates, as GeoMesa's serializer would); columns with
// the paper's compression mechanism enabled use the delta format, whose
// output the field compressor then gzips. The leading format byte makes
// the value self-describing.
const (
	stSeriesFormatPlain = 0
	stSeriesFormatDelta = 1
	// Delta2 refines Delta: coordinates stay first-order deltas, but
	// timestamps are delta-of-delta — GPS fixes arrive at a near-fixed
	// sampling interval, so the second difference hovers at zero and
	// each timestamp usually costs a single varint byte. New compressed
	// writes use this format; Delta remains decodable for stored rows.
	stSeriesFormatDelta2 = 2
)

// appendSTSeries appends timestamped points. The delta format encodes all
// three dimensions as varint deltas (coordinates at 1e-7° fixed
// precision); consecutive GPS fixes are meters and seconds apart, so the
// deltas are tiny and gzip on top squeezes the remaining regularity —
// the property the paper's compression mechanism exploits on courier GPS
// lists.
func appendSTSeries(dst []byte, pts []geom.TPoint, delta bool) []byte {
	if !delta {
		dst = append(dst, stSeriesFormatPlain)
		dst = binary.AppendUvarint(dst, uint64(len(pts)))
		var prevT int64
		for _, p := range pts {
			dst = appendF64(appendF64(dst, p.Lng), p.Lat)
			dst = binary.AppendVarint(dst, p.T-prevT)
			prevT = p.T
		}
		return dst
	}
	dst = append(dst, stSeriesFormatDelta2)
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	var prevLng, prevLat, prevT, prevDT int64
	for _, p := range pts {
		lng := int64(math.Round(p.Lng * stSeriesScale))
		lat := int64(math.Round(p.Lat * stSeriesScale))
		dst = binary.AppendVarint(dst, lng-prevLng)
		dst = binary.AppendVarint(dst, lat-prevLat)
		dt := p.T - prevT
		dst = binary.AppendVarint(dst, dt-prevDT)
		prevLng, prevLat, prevT, prevDT = lng, lat, p.T, dt
	}
	return dst
}

func decodeSTSeries(data []byte) ([]geom.TPoint, error) {
	if len(data) < 1 {
		return nil, ErrBadRow
	}
	format := data[0]
	data = data[1:]
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, ErrBadRow
	}
	data = data[sz:]
	pts := make([]geom.TPoint, n)
	switch format {
	case stSeriesFormatPlain:
		var prevT int64
		var err error
		for i := range pts {
			if pts[i].Lng, data, err = readF64(data); err != nil {
				return nil, err
			}
			if pts[i].Lat, data, err = readF64(data); err != nil {
				return nil, err
			}
			d, vn := binary.Varint(data)
			if vn <= 0 {
				return nil, ErrBadRow
			}
			data = data[vn:]
			prevT += d
			pts[i].T = prevT
		}
		return pts, nil
	case stSeriesFormatDelta, stSeriesFormatDelta2:
		var prevLng, prevLat, prevT, prevDT int64
		for i := range pts {
			var deltas [3]int64
			for j := range deltas {
				d, vn := binary.Varint(data)
				if vn <= 0 {
					return nil, ErrBadRow
				}
				data = data[vn:]
				deltas[j] = d
			}
			prevLng += deltas[0]
			prevLat += deltas[1]
			if format == stSeriesFormatDelta2 {
				prevDT += deltas[2]
				prevT += prevDT
			} else {
				prevT += deltas[2]
			}
			pts[i] = geom.TPoint{
				Point: geom.Point{
					Lng: float64(prevLng) / stSeriesScale,
					Lat: float64(prevLat) / stSeriesScale,
				},
				T: prevT,
			}
		}
		return pts, nil
	default:
		return nil, fmt.Errorf("%w: st_series format %d", ErrBadRow, format)
	}
}
