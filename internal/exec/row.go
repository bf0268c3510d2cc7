// Package exec is JUST's execution engine: the stand-in for Apache Spark
// in the paper's stack. It provides typed column batches (ColumnBatch),
// the DataFrame that carries them between plan nodes, the relational
// operators the SQL layer lowers to (hash aggregate, sort, hash join;
// filter, project and limit are selection vectors and shared columns),
// and memory accounting so memory-bound baselines can fail realistically.
package exec

import (
	"errors"
	"fmt"
	"time"

	"just/internal/geom"
)

// ErrOutOfMemory reports that an operator exceeded its memory budget —
// the failure mode the paper observes in Spark-only systems on data
// larger than cluster memory.
var ErrOutOfMemory = errors.New("exec: out of memory")

// DataType enumerates column types.
type DataType uint8

// Column types supported by JUST tables and views.
const (
	TypeInt DataType = iota + 1
	TypeFloat
	TypeString
	TypeBool
	TypeTime     // Unix milliseconds
	TypeGeometry // geom.Geometry
	TypeBytes
	TypeSTSeries // spatio-temporal series: []geom.TPoint (e.g. a GPS list)
	TypeTSeries  // time series: []float64 paired with implicit timestamps
)

func (t DataType) String() string {
	switch t {
	case TypeInt:
		return "integer"
	case TypeFloat:
		return "double"
	case TypeString:
		return "string"
	case TypeBool:
		return "bool"
	case TypeTime:
		return "date"
	case TypeGeometry:
		return "geometry"
	case TypeBytes:
		return "bytes"
	case TypeSTSeries:
		return "st_series"
	case TypeTSeries:
		return "t_series"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// ParseType resolves a JustQL type name. Geometry subtype names (point,
// linestring, polygon, multipoint) all map to TypeGeometry.
func ParseType(s string) (DataType, bool) {
	switch s {
	case "integer", "int", "long", "bigint":
		return TypeInt, true
	case "double", "float", "real":
		return TypeFloat, true
	case "string", "varchar", "text":
		return TypeString, true
	case "bool", "boolean":
		return TypeBool, true
	case "date", "time", "timestamp":
		return TypeTime, true
	case "geometry", "point", "linestring", "polygon", "multipoint":
		return TypeGeometry, true
	case "bytes", "blob":
		return TypeBytes, true
	case "st_series":
		return TypeSTSeries, true
	case "t_series":
		return TypeTSeries, true
	default:
		return 0, false
	}
}

// Field is one column of a schema.
type Field struct {
	Name string
	Type DataType
}

// Schema describes the columns of a DataFrame or table.
type Schema struct {
	Fields []Field
}

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) *Schema {
	return &Schema{Fields: fields}
}

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Field returns the field at position i.
func (s *Schema) Field(i int) Field { return s.Fields[i] }

// Len returns the column count.
func (s *Schema) Len() int { return len(s.Fields) }

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		out[i] = f.Name
	}
	return out
}

// Row is one record; values are Go natives per DataType:
// int64, float64, string, bool, int64 (time ms), geom.Geometry, []byte,
// []geom.TPoint, []float64. nil encodes SQL NULL.
type Row []any

// Clone deep-copies the row's slice header (values are shared).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// SizeOf estimates the memory footprint of a value in bytes, used by the
// memory accountant.
func SizeOf(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 8
	case int64, float64, bool:
		return 8
	case string:
		return int64(len(x)) + 16
	case []byte:
		return int64(len(x)) + 24
	case []geom.TPoint:
		return int64(len(x))*24 + 24
	case []float64:
		return int64(len(x))*8 + 24
	case geom.Point:
		return 16
	case *geom.LineString:
		return int64(len(x.Points))*16 + 24
	case *geom.Polygon:
		n := len(x.Outer)
		for _, h := range x.Holes {
			n += len(h)
		}
		return int64(n)*16 + 24
	case *geom.MultiPoint:
		return int64(len(x.Points))*16 + 24
	case time.Time:
		return 24
	default:
		return 64
	}
}

// RowSize estimates a row's memory footprint.
func RowSize(r Row) int64 {
	total := int64(24)
	for _, v := range r {
		total += SizeOf(v)
	}
	return total
}

// Compare orders two values of the same type; nil sorts first. It
// returns -1, 0 or 1 and false if the values are not comparable.
func Compare(a, b any) (int, bool) {
	if a == nil && b == nil {
		return 0, true
	}
	if a == nil {
		return -1, true
	}
	if b == nil {
		return 1, true
	}
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return cmpInt(x, y), true
		case float64:
			return cmpFloat(float64(x), y), true
		}
	case float64:
		switch y := b.(type) {
		case float64:
			return cmpFloat(x, y), true
		case int64:
			return cmpFloat(x, float64(y)), true
		}
	case string:
		if y, ok := b.(string); ok {
			if x < y {
				return -1, true
			}
			if x > y {
				return 1, true
			}
			return 0, true
		}
	case bool:
		if y, ok := b.(bool); ok {
			if x == y {
				return 0, true
			}
			if !x {
				return -1, true
			}
			return 1, true
		}
	}
	return 0, false
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
