package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"just/internal/analysis"
	"just/internal/exec"
	"just/internal/geom"
)

// scalarFunc is one preset function. Values flow as exec row values;
// geometry helpers additionally pass geom.MBR internally.
type scalarFunc func(args []any) (any, error)

// scalarFuncs is the preset function registry (the paper's out-of-the-box
// operations; names are case-insensitive and stored lower-cased).
var scalarFuncs = map[string]scalarFunc{
	"st_makembr": func(args []any) (any, error) {
		v, err := floats(args, 4)
		if err != nil {
			return nil, fmt.Errorf("st_makeMBR: %w", err)
		}
		return geom.NewMBR(v[0], v[1], v[2], v[3]), nil
	},
	"st_makepoint": func(args []any) (any, error) {
		v, err := floats(args, 2)
		if err != nil {
			return nil, fmt.Errorf("st_makePoint: %w", err)
		}
		return geom.Point{Lng: v[0], Lat: v[1]}, nil
	},
	"st_within": func(args []any) (any, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("st_within: want 2 args")
		}
		return evalWithin(args[0], args[1])
	},
	"st_intersects": func(args []any) (any, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("st_intersects: want 2 args")
		}
		return evalWithin(args[0], args[1])
	},
	"st_distance": func(args []any) (any, error) {
		a, b, err := twoGeoms(args)
		if err != nil {
			return nil, fmt.Errorf("st_distance: %w", err)
		}
		return geom.EuclideanDistance(a.MBR().Center(), b.MBR().Center()), nil
	},
	"st_distancemeters": func(args []any) (any, error) {
		a, b, err := twoGeoms(args)
		if err != nil {
			return nil, fmt.Errorf("st_distanceMeters: %w", err)
		}
		return geom.HaversineMeters(a.MBR().Center(), b.MBR().Center()), nil
	},
	"st_x": func(args []any) (any, error) {
		p, err := onePoint(args)
		if err != nil {
			return nil, fmt.Errorf("st_x: %w", err)
		}
		return p.Lng, nil
	},
	"st_y": func(args []any) (any, error) {
		p, err := onePoint(args)
		if err != nil {
			return nil, fmt.Errorf("st_y: %w", err)
		}
		return p.Lat, nil
	},
	"st_aswkt": func(args []any) (any, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("st_asWKT: want 1 arg")
		}
		g, ok := args[0].(geom.Geometry)
		if !ok {
			return nil, fmt.Errorf("st_asWKT: not a geometry: %T", args[0])
		}
		return g.WKT(), nil
	},
	"st_geomfromwkt": func(args []any) (any, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("st_geomFromWKT: want 1 arg")
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("st_geomFromWKT: not a string")
		}
		return geom.ParseWKT(s)
	},
	"st_wgs84togcj02": func(args []any) (any, error) {
		return coordTransform(args, analysis.WGS84ToGCJ02)
	},
	"st_gcj02towgs84": func(args []any) (any, error) {
		return coordTransform(args, analysis.GCJ02ToWGS84)
	},
	"st_gcj02tobd09": func(args []any) (any, error) {
		return coordTransform(args, analysis.GCJ02ToBD09)
	},
	"st_bd09togcj02": func(args []any) (any, error) {
		return coordTransform(args, analysis.BD09ToGCJ02)
	},
	"to_time": func(args []any) (any, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("to_time: want 1 arg")
		}
		return toTimeMS(args[0])
	},
	"long_to_date_ms": func(args []any) (any, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("long_to_date_ms: want 1 arg")
		}
		f, err := toFloat(args[0])
		if err != nil {
			return nil, err
		}
		return int64(f), nil
	},
	"lng_lat_to_point": func(args []any) (any, error) {
		v, err := floats(args, 2)
		if err != nil {
			return nil, fmt.Errorf("lng_lat_to_point: %w", err)
		}
		return geom.Point{Lng: v[0], Lat: v[1]}, nil
	},
	"to_double": func(args []any) (any, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("to_double: want 1 arg")
		}
		return toFloat(args[0])
	},
	"to_long": func(args []any) (any, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("to_long: want 1 arg")
		}
		f, err := toFloat(args[0])
		if err != nil {
			return nil, err
		}
		return int64(f), nil
	},
	"abs": func(args []any) (any, error) {
		v, err := floats(args, 1)
		if err != nil {
			return nil, err
		}
		return math.Abs(v[0]), nil
	},
	"floor": func(args []any) (any, error) {
		v, err := floats(args, 1)
		if err != nil {
			return nil, err
		}
		return math.Floor(v[0]), nil
	},
	"ceil": func(args []any) (any, error) {
		v, err := floats(args, 1)
		if err != nil {
			return nil, err
		}
		return math.Ceil(v[0]), nil
	},
	"sqrt": func(args []any) (any, error) {
		v, err := floats(args, 1)
		if err != nil {
			return nil, err
		}
		return math.Sqrt(v[0]), nil
	},
	"st_geohash": func(args []any) (any, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("st_geohash: want (point, precision)")
		}
		p, ok := args[0].(geom.Point)
		if !ok {
			return nil, fmt.Errorf("st_geohash: not a point")
		}
		n, err := toFloat(args[1])
		if err != nil {
			return nil, err
		}
		return geohash(p, int(n)), nil
	},
}

func coordTransform(args []any, fn func(lng, lat float64) (float64, float64)) (any, error) {
	switch len(args) {
	case 1:
		p, ok := args[0].(geom.Point)
		if !ok {
			return nil, fmt.Errorf("coordinate transform: not a point: %T", args[0])
		}
		lng, lat := fn(p.Lng, p.Lat)
		return geom.Point{Lng: lng, Lat: lat}, nil
	case 2:
		v, err := floats(args, 2)
		if err != nil {
			return nil, err
		}
		lng, lat := fn(v[0], v[1])
		return geom.Point{Lng: lng, Lat: lat}, nil
	default:
		return nil, fmt.Errorf("coordinate transform: want (point) or (lng, lat)")
	}
}

// evalWithin implements the WITHIN operator / st_within: geometry against
// an MBR (or another geometry's MBR).
func evalWithin(g, area any) (bool, error) {
	gg, ok := g.(geom.Geometry)
	if !ok {
		return false, fmt.Errorf("WITHIN: left side is %T, not a geometry", g)
	}
	switch a := area.(type) {
	case geom.MBR:
		return geom.IntersectsMBR(gg, a), nil
	case geom.Geometry:
		return geom.IntersectsMBR(gg, a.MBR()), nil
	default:
		return false, fmt.Errorf("WITHIN: right side is %T", area)
	}
}

func floats(args []any, n int) ([]float64, error) {
	if len(args) != n {
		return nil, fmt.Errorf("want %d numeric args, got %d", n, len(args))
	}
	out := make([]float64, n)
	for i, a := range args {
		f, err := toFloat(a)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

func toFloat(v any) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		if err != nil {
			return 0, fmt.Errorf("not numeric: %q", x)
		}
		return f, nil
	default:
		return 0, fmt.Errorf("not numeric: %T", v)
	}
}

func twoGeoms(args []any) (geom.Geometry, geom.Geometry, error) {
	if len(args) != 2 {
		return nil, nil, fmt.Errorf("want 2 geometries")
	}
	a, ok1 := args[0].(geom.Geometry)
	b, ok2 := args[1].(geom.Geometry)
	if !ok1 || !ok2 {
		return nil, nil, fmt.Errorf("want 2 geometries, got %T, %T", args[0], args[1])
	}
	return a, b, nil
}

func onePoint(args []any) (geom.Point, error) {
	if len(args) != 1 {
		return geom.Point{}, fmt.Errorf("want 1 point")
	}
	p, ok := args[0].(geom.Point)
	if !ok {
		return geom.Point{}, fmt.Errorf("not a point: %T", args[0])
	}
	return p, nil
}

// timeLayouts are the accepted time literal formats.
var timeLayouts = []string{
	"2006-01-02T15:04:05Z07:00",
	"2006-01-02T15:04:05",
	"2006-01-02 15:04:05",
	"2006-01-02",
}

// toTimeMS converts a value to Unix milliseconds: int64 passes through,
// strings are parsed with the accepted layouts (UTC).
func toTimeMS(v any) (int64, error) {
	switch x := v.(type) {
	case int64:
		return x, nil
	case float64:
		return int64(x), nil
	case string:
		for _, layout := range timeLayouts {
			if t, err := time.ParseInLocation(layout, x, time.UTC); err == nil {
				return t.UnixMilli(), nil
			}
		}
		return 0, fmt.Errorf("sql: unparsable time %q", x)
	default:
		return 0, fmt.Errorf("sql: not a time: %T", v)
	}
}

// geohash encodes a point with the standard base-32 geohash, used by the
// urban-block example (the paper's application partitions space with
// 7-character geohashes).
func geohash(p geom.Point, precision int) string {
	if precision <= 0 {
		precision = 7
	}
	const base32 = "0123456789bcdefghjkmnpqrstuvwxyz"
	latMin, latMax := -90.0, 90.0
	lngMin, lngMax := -180.0, 180.0
	var sb strings.Builder
	bit, ch := 0, 0
	even := true
	for sb.Len() < precision {
		if even {
			mid := (lngMin + lngMax) / 2
			if p.Lng >= mid {
				ch |= 1 << (4 - bit)
				lngMin = mid
			} else {
				lngMax = mid
			}
		} else {
			mid := (latMin + latMax) / 2
			if p.Lat >= mid {
				ch |= 1 << (4 - bit)
				latMin = mid
			} else {
				latMax = mid
			}
		}
		even = !even
		if bit < 4 {
			bit++
		} else {
			sb.WriteByte(base32[ch])
			bit, ch = 0, 0
		}
	}
	return sb.String()
}

// env is the one position an expression is evaluated at: a physical row
// of a column batch or, for LOAD whose sources are rows, a row.
type env struct {
	b   *exec.ColumnBatch
	p   int
	row exec.Row
}

func (r *env) col(i int) any {
	if r.b != nil {
		return r.b.Vec(i).Value(r.p)
	}
	return r.row[i]
}

// evalFn is an expression bound to the column positions of one schema.
type evalFn func(*env) (any, error)

// bind resolves e's identifiers against schema once per statement, so
// evaluating a position costs no name lookups. It is the generic
// position-at-a-time adapter: operators and scalar functions see boxed
// values, one row at a time. A nil schema binds a constant expression.
func bind(e Expr, schema *exec.Schema) (evalFn, error) {
	switch v := e.(type) {
	case *Literal:
		val := v.Val
		return func(*env) (any, error) { return val, nil }, nil
	case *Ident:
		if schema == nil {
			return nil, fmt.Errorf("sql: column %q in constant context", v.Name)
		}
		i := schema.Index(v.Name)
		if i < 0 {
			return nil, fmt.Errorf("sql: unknown column %q", v.Name)
		}
		return func(r *env) (any, error) { return r.col(i), nil }, nil
	case *UnaryExpr:
		x, err := bind(v.X, schema)
		if err != nil {
			return nil, err
		}
		op := v.Op
		return func(r *env) (any, error) {
			xv, err := x(r)
			if err != nil {
				return nil, err
			}
			switch op {
			case "NOT":
				b, ok := xv.(bool)
				if !ok {
					return nil, fmt.Errorf("sql: NOT of non-boolean %T", xv)
				}
				return !b, nil
			case "-":
				switch n := xv.(type) {
				case nil:
					return nil, nil
				case int64:
					return -n, nil
				case float64:
					return -n, nil
				}
				return nil, fmt.Errorf("sql: negation of %T", xv)
			}
			return nil, fmt.Errorf("sql: unknown unary op %q", op)
		}, nil
	case *BinaryExpr:
		return bindBinary(v, schema)
	case *BetweenExpr:
		args, err := bindAll(schema, v.X, v.Lo, v.Hi)
		if err != nil {
			return nil, err
		}
		return func(r *env) (any, error) {
			x, err := args[0](r)
			if err != nil {
				return nil, err
			}
			lo, err := args[1](r)
			if err != nil {
				return nil, err
			}
			hi, err := args[2](r)
			if err != nil {
				return nil, err
			}
			c1, ok1 := exec.Compare(x, timeLiteral(x, lo))
			c2, ok2 := exec.Compare(x, timeLiteral(x, hi))
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("sql: BETWEEN on incomparable types")
			}
			return c1 >= 0 && c2 <= 0, nil
		}, nil
	case *FuncCall:
		fn, ok := scalarFuncs[v.Name]
		if !ok {
			return nil, fmt.Errorf("sql: unknown function %q", v.Name)
		}
		args, err := bindAll(schema, v.Args...)
		if err != nil {
			return nil, err
		}
		return func(r *env) (any, error) {
			vals := make([]any, len(args))
			for i, a := range args {
				if vals[i], err = a(r); err != nil {
					return nil, err
				}
			}
			return fn(vals)
		}, nil
	case *InExpr:
		return nil, fmt.Errorf("sql: IN %s is only valid as a k-NN predicate", v.Fn.Name)
	default:
		return nil, fmt.Errorf("sql: cannot evaluate %T", e)
	}
}

func bindAll(schema *exec.Schema, es ...Expr) ([]evalFn, error) {
	out := make([]evalFn, len(es))
	for i, e := range es {
		fn, err := bind(e, schema)
		if err != nil {
			return nil, err
		}
		out[i] = fn
	}
	return out, nil
}

// evalConst evaluates an expression that references no column.
func evalConst(e Expr) (any, error) {
	fn, err := bind(e, nil)
	if err != nil {
		return nil, err
	}
	return fn(&env{})
}

// timeLiteral lets time-typed (int64) values compare against string
// literals: a parsable time string becomes its Unix milliseconds.
func timeLiteral(x, lit any) any {
	if _, isInt := x.(int64); isInt {
		if s, isStr := lit.(string); isStr {
			if ms, err := toTimeMS(s); err == nil {
				return ms
			}
		}
	}
	return lit
}

func bindBinary(v *BinaryExpr, schema *exec.Schema) (evalFn, error) {
	args, err := bindAll(schema, v.L, v.R)
	if err != nil {
		return nil, err
	}
	l, r, op := args[0], args[1], v.Op
	if op != "AND" && op != "OR" {
		return func(e *env) (any, error) {
			lv, err := l(e)
			if err != nil {
				return nil, err
			}
			rv, err := r(e)
			if err != nil {
				return nil, err
			}
			return binaryOp(op, lv, rv)
		}, nil
	}
	return func(e *env) (any, error) {
		lv, err := l(e)
		if err != nil {
			return nil, err
		}
		lb, ok := lv.(bool)
		if !ok {
			return nil, fmt.Errorf("sql: %s of non-boolean %T", op, lv)
		}
		// Short-circuit: false AND …, true OR ….
		if lb == (op == "OR") {
			return lb, nil
		}
		rv, err := r(e)
		if err != nil {
			return nil, err
		}
		rb, ok := rv.(bool)
		if !ok {
			return nil, fmt.Errorf("sql: %s of non-boolean %T", op, rv)
		}
		return rb, nil
	}, nil
}

// binaryOp applies a non-logical binary operator to two values.
func binaryOp(op string, l, r any) (any, error) {
	switch op {
	case "WITHIN":
		return evalWithin(l, r)
	case "=", "!=", "<", "<=", ">", ">=":
		r = timeLiteral(l, r)
		c, ok := exec.Compare(l, r)
		if !ok {
			eq := fmt.Sprint(l) == fmt.Sprint(r)
			switch op {
			case "=":
				return eq, nil
			case "!=":
				return !eq, nil
			}
			return nil, fmt.Errorf("sql: cannot compare %T with %T", l, r)
		}
		switch op {
		case "=":
			return c == 0, nil
		case "!=":
			return c != 0, nil
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		default:
			return c >= 0, nil
		}
	case "+", "-", "*", "/":
		return arith(op, l, r)
	}
	return nil, fmt.Errorf("sql: unknown operator %q", op)
}

// arith applies an arithmetic operator; a NULL operand yields NULL.
func arith(op string, l, r any) (any, error) {
	if l == nil || r == nil {
		return nil, nil
	}
	li, lInt := l.(int64)
	ri, rInt := r.(int64)
	if lInt && rInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return nil, fmt.Errorf("sql: division by zero")
			}
			return li / ri, nil
		}
	}
	lf, err1 := toFloat(l)
	rf, err2 := toFloat(r)
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("sql: arithmetic on non-numeric values %T, %T", l, r)
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, fmt.Errorf("sql: division by zero")
		}
		return lf / rf, nil
	}
	return nil, fmt.Errorf("sql: unknown arithmetic op %q", op)
}
