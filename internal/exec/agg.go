package exec

import "fmt"

// AggKind enumerates aggregate functions.
type AggKind uint8

// Supported aggregates.
const (
	AggCount AggKind = iota + 1
	AggSum
	AggMin
	AggMax
	AggAvg
)

// ParseAgg resolves an aggregate function name.
func ParseAgg(name string) (AggKind, bool) {
	switch name {
	case "count":
		return AggCount, true
	case "sum":
		return AggSum, true
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	case "avg":
		return AggAvg, true
	default:
		return 0, false
	}
}

// Agg describes one aggregate column: fn(Col) AS Name.
type Agg struct {
	Kind AggKind
	Col  string // ignored for COUNT(*) when "*"
	Name string
}

type accumulator struct {
	count int64
	sum   float64
	min   any
	max   any
	hasNF bool // saw a non-numeric value: SUM/AVG are errors
}

// addInt, addFloat and addStr feed one value from a typed vector. They
// box for min/max only when the extremum moves. NULL inputs are never
// fed: SQL aggregates over a column skip them, so COUNT(col) and AVG's
// divisor count non-NULL values only.
func (a *accumulator) addInt(x int64) {
	a.count++
	a.sum += float64(x)
	extrema(a, x)
}

func (a *accumulator) addFloat(x float64) {
	a.count++
	a.sum += x
	extrema(a, x)
}

func (a *accumulator) addStr(x string) {
	a.count++
	a.hasNF = true
	extrema(a, x)
}

// addValue feeds one value of an any-backed or dynamic vector; a NULL
// is skipped.
func (a *accumulator) addValue(x any) {
	switch v := x.(type) {
	case nil:
	case int64:
		a.addInt(v)
	case float64:
		a.addFloat(v)
	case string:
		a.addStr(v)
	default:
		a.count++
		a.hasNF = true
		widen(&a.min, x, -1)
		widen(&a.max, x, 1)
	}
}

func extrema[T int64 | float64 | string](a *accumulator, x T) {
	if y, ok := a.min.(T); ok {
		if x < y {
			a.min = x
		}
	} else {
		widen(&a.min, x, -1)
	}
	if y, ok := a.max.(T); ok {
		if x > y {
			a.max = x
		}
	} else {
		widen(&a.max, x, 1)
	}
}

// widen moves the extremum *cur to x when cur is unset or x lies
// beyond it in direction sign; it covers the first value and columns
// mixing comparable types (int64 with float64). Incomparable values
// leave the first one seen in place.
func widen(cur *any, x any, sign int) {
	if *cur == nil {
		*cur = x
	} else if c, ok := Compare(x, *cur); ok && c*sign > 0 {
		*cur = x
	}
}

func (a *accumulator) result(kind AggKind) (any, error) {
	switch kind {
	case AggCount:
		return a.count, nil
	case AggSum:
		if a.hasNF {
			return nil, fmt.Errorf("exec: SUM over non-numeric column")
		}
		return a.sum, nil
	case AggAvg:
		if a.hasNF {
			return nil, fmt.Errorf("exec: AVG over non-numeric column")
		}
		if a.count == 0 {
			return nil, nil
		}
		return a.sum / float64(a.count), nil
	case AggMin:
		return a.min, nil
	case AggMax:
		return a.max, nil
	default:
		return nil, fmt.Errorf("exec: unknown aggregate %d", kind)
	}
}

type group struct {
	key  Row
	accs []accumulator
}

// aggResultSchema builds the result schema of an aggregation: the key
// columns followed by one column per aggregate.
func aggResultSchema(schema *Schema, keyIdx []int, aggs []Agg, aggIdx []int) *Schema {
	fields := make([]Field, 0, len(keyIdx)+len(aggs))
	for _, j := range keyIdx {
		fields = append(fields, schema.Field(j))
	}
	for i, a := range aggs {
		t := TypeFloat
		if a.Kind == AggCount {
			t = TypeInt
		} else if aggIdx[i] >= 0 && (a.Kind == AggMin || a.Kind == AggMax) {
			t = schema.Field(aggIdx[i]).Type
		}
		name := a.Name
		if name == "" {
			name = fmt.Sprintf("%s_%s", aggName(a.Kind), a.Col)
		}
		fields = append(fields, Field{Name: name, Type: t})
	}
	return &Schema{Fields: fields}
}

func aggName(k AggKind) string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	}
	return "agg"
}

func valueEq(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if c, ok := Compare(a, b); ok {
		return c == 0
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}
