package sql

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"just/internal/exec"
	"just/internal/geom"
)

// TestDifferentialPlanShapes runs every plan shape through
// Session.Execute and through a brute-force evaluation — plain Go over
// the rows Table.FullScan returns — and requires the same rows:
// set-equal, and in the same order where the statement has an ORDER BY
// that decides it. The data carries NULLs in every non-key column, so
// the one NULL rule (NULL equals NULL, NULL orders first) is exercised
// in predicates, sort keys, group keys and join keys alike.
func TestDifferentialPlanShapes(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE t (fid integer:primary key, name string, v integer, w double, time date, geom point)`)
	mustExec(t, s, `CREATE TABLE u (uid integer:primary key, k integer, label string)`)
	rng := rand.New(rand.NewSource(24))
	orNull := func(s string) string {
		if rng.Intn(8) == 0 {
			return "NULL"
		}
		return s
	}
	var vals []string
	for i := 0; i < 400; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %s, %s, %s, %d, st_makePoint(%.6f, %.6f))", i,
			orNull(fmt.Sprintf("'n%d'", rng.Intn(6))), orNull(fmt.Sprint(rng.Intn(40))), orNull(fmt.Sprintf("%d.5", rng.Intn(100))),
			int64(i)*hourMS, 116+rng.Float64()*0.2, 39+rng.Float64()*0.2))
	}
	mustExec(t, s, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
	vals = vals[:0]
	for i := 0; i < 60; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %s, 'l%d')", i, orNull(fmt.Sprint(rng.Intn(50))), i))
	}
	mustExec(t, s, "INSERT INTO u VALUES "+strings.Join(vals, ", "))

	fullScan := func(name string) []exec.Row {
		tbl, err := s.engine.OpenTable("", name)
		if err != nil {
			t.Fatal(err)
		}
		var rows []exec.Row
		if err := tbl.FullScan(context.Background(), func(r exec.Row) bool { rows = append(rows, r); return true }); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	T, U := fullScan("t"), fullScan("u")
	if len(T) != 400 || len(U) != 60 {
		t.Fatalf("full scans = %d, %d rows", len(T), len(U))
	}
	const fid, name, v, w, tm, gm = 0, 1, 2, 3, 4, 5 // columns of t
	const k, label = 1, 2                            // columns of u

	// The engine's comparison rule, for the reference predicates.
	cmp := func(a, b any) int { c, _ := exec.Compare(a, b); return c }
	eq := func(a, b any) bool { c, ok := exec.Compare(a, b); return ok && c == 0 }
	filter := func(rows []exec.Row, keep func(exec.Row) bool) []exec.Row {
		var out []exec.Row
		for _, r := range rows {
			if keep(r) {
				out = append(out, r)
			}
		}
		return out
	}
	pick := func(rows []exec.Row, cols ...int) []exec.Row {
		out := make([]exec.Row, len(rows))
		for i, r := range rows {
			for _, c := range cols {
				out[i] = append(out[i], r[c])
			}
		}
		return out
	}
	sorted := func(rows []exec.Row, less func(a, b exec.Row) bool) []exec.Row {
		out := append([]exec.Row{}, rows...)
		sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
		return out
	}
	// group is the reference GROUP BY: count(*), sum, min, max and
	// count of one column per key value (key < 0: one group of every
	// row). Like SQL, sum, min, max and count(col) skip NULL inputs.
	group := func(rows []exec.Row, key, col int) []exec.Row {
		var out []exec.Row
		for _, r := range rows {
			var kv any
			if key >= 0 {
				kv = r[key]
			}
			var g exec.Row
			for _, cand := range out {
				if eq(cand[0], kv) {
					g = cand
				}
			}
			if g == nil {
				g = exec.Row{kv, int64(0), float64(0), nil, nil, int64(0)}
				out = append(out, g)
			}
			g[1] = g[1].(int64) + 1
			if x := r[col]; x != nil {
				f, _ := toFloat(x)
				g[2] = g[2].(float64) + f
				if g[3] == nil || cmp(x, g[3]) < 0 {
					g[3] = x
				}
				if g[4] == nil || cmp(x, g[4]) > 0 {
					g[4] = x
				}
				g[5] = g[5].(int64) + 1
			}
		}
		return out
	}
	// avg is the reference AVG of a group's column: its sum over its
	// non-NULL count, NULL when every input is NULL.
	avg := func(g exec.Row) any {
		if n := g[5].(int64); n > 0 {
			return g[2].(float64) / float64(n)
		}
		return nil
	}
	// withAvg puts avg(fid) after each group's sum. byFid is group over
	// the same rows and key with col fid; its groups come in the same
	// order.
	withAvg := func(groups, byFid []exec.Row) []exec.Row {
		for i, g := range groups {
			groups[i] = exec.Row{g[0], g[1], g[2], avg(byFid[i]), g[3], g[4]}
		}
		return groups
	}
	join := func(outer bool) []exec.Row {
		var out []exec.Row
		for _, l := range T {
			matched := false
			for _, r := range U {
				if eq(l[v], r[k]) {
					matched = true
					out = append(out, exec.Row{l[fid], r[label]})
				}
			}
			if !matched && outer {
				out = append(out, exec.Row{l[fid], nil})
			}
		}
		return out
	}

	window := geom.NewMBR(116.05, 39.05, 116.15, 39.15)
	center := geom.Point{Lng: 116.1, Lat: 39.1}
	nearest := func(rows []exec.Row, q geom.Point, k int) []exec.Row {
		return sorted(rows, func(a, b exec.Row) bool {
			return geom.EuclideanDistance(q, a[gm].(geom.Point)) < geom.EuclideanDistance(q, b[gm].(geom.Point))
		})[:k]
	}
	plus1 := func(x any) any {
		if x == nil {
			return nil // arithmetic on NULL is NULL
		}
		return x.(int64) + 1
	}

	cases := []struct {
		name    string
		setup   []string
		sql     string
		want    []exec.Row
		ordered bool
		limit   int // > 0: any `limit` rows of want
	}{
		{
			name: "filter + project",
			sql:  `SELECT fid, v + 1 AS x, name FROM t WHERE w < 50 AND name != 'n3'`,
			want: func() []exec.Row {
				out := pick(filter(T, func(r exec.Row) bool { return cmp(r[w], 50.0) < 0 && cmp(r[name], "n3") != 0 }), fid, v, name)
				for _, r := range out {
					r[1] = plus1(r[1])
				}
				return out
			}(),
		},
		{
			name:  "filter + project + limit",
			sql:   `SELECT fid, name FROM t WHERE v > 10 AND w >= 20 LIMIT 7`,
			want:  pick(filter(T, func(r exec.Row) bool { return cmp(r[v], int64(10)) > 0 && cmp(r[w], 20.0) >= 0 }), fid, name),
			limit: 7,
		},
		{
			name: "window + time + residual, ordered limit",
			sql: `SELECT fid, w FROM t WHERE geom WITHIN st_makeMBR(116.05, 39.05, 116.15, 39.15)
				AND time BETWEEN 36000000 AND 1080000000 AND v >= 5 ORDER BY fid DESC LIMIT 9`,
			want: pick(sorted(filter(T, func(r exec.Row) bool {
				ts := r[tm].(int64)
				return geom.IntersectsMBR(r[gm].(geom.Point), window) && ts >= 10*hourMS && ts <= 300*hourMS && cmp(r[v], int64(5)) >= 0
			}), func(a, b exec.Row) bool { return a[fid].(int64) > b[fid].(int64) })[:9], fid, w),
			ordered: true,
		},
		{
			// Rows sit exactly on both bounds; a strict bound pushed into
			// the scan as the inclusive one returned them.
			name: "strict time bounds, rows on the bounds",
			sql:  `SELECT fid FROM t WHERE time > 36000000 AND time < 360000000`,
			want: pick(filter(T, func(r exec.Row) bool {
				ts := r[tm].(int64)
				return ts > 10*hourMS && ts < 100*hourMS
			}), fid),
		},
		{
			name: "residual + GROUP BY",
			sql:  `SELECT name, count(*) AS n, sum(w) AS s, min(w) AS lo, max(w) AS hi FROM t WHERE v >= 5 GROUP BY name`,
			want: pick(group(filter(T, func(r exec.Row) bool { return cmp(r[v], int64(5)) >= 0 }), name, w), 0, 1, 2, 3, 4),
		},
		{
			// The shape of the benchmark's aggregate: the aggregator is the
			// scan's sink, fed by many parallel scan tasks.
			name: "window + time + residual, GROUP BY an int key, AVG",
			sql: `SELECT v, count(*) AS n, sum(w) AS s, avg(fid) AS a, min(w) AS lo, max(w) AS hi FROM t
				WHERE geom WITHIN st_makeMBR(116.05, 39.05, 116.15, 39.15) AND time BETWEEN 36000000 AND 1080000000
				AND name != 'n2' GROUP BY v`,
			want: func() []exec.Row {
				rows := filter(T, func(r exec.Row) bool {
					ts := r[tm].(int64)
					return geom.IntersectsMBR(r[gm].(geom.Point), window) && ts >= 10*hourMS && ts <= 300*hourMS && cmp(r[name], "n2") != 0
				})
				return withAvg(group(rows, v, w), group(rows, v, fid))
			}(),
		},
		{
			name: "MIN and MAX of a string column, GROUP BY a float key",
			sql:  `SELECT w, count(*) AS n, min(name) AS lo, max(name) AS hi FROM t WHERE v < 15 GROUP BY w`,
			want: pick(group(filter(T, func(r exec.Row) bool { return cmp(r[v], int64(15)) < 0 }), w, name), 0, 1, 3, 4),
		},
		{
			name: "global aggregate",
			sql:  `SELECT count(*) AS n, sum(v) AS s, avg(fid) AS a, min(v) AS lo, max(v) AS hi FROM t WHERE w > 30`,
			want: func() []exec.Row {
				rows := filter(T, func(r exec.Row) bool { return cmp(r[w], 30.0) > 0 })
				return pick(withAvg(group(rows, -1, v), group(rows, -1, fid)), 1, 2, 3, 4, 5)
			}(),
		},
		{
			// w holds NULLs: COUNT(w) and AVG(w) skip them, COUNT(*) not.
			name: "COUNT and AVG of a column with NULLs, GROUP BY a string key",
			sql:  `SELECT name, count(*) AS n, count(w) AS nw, avg(w) AS a FROM t GROUP BY name`,
			want: func() []exec.Row {
				var out []exec.Row
				for _, g := range group(T, name, w) {
					out = append(out, exec.Row{g[0], g[1], g[5], avg(g)})
				}
				return out
			}(),
		},
		{
			name: "global aggregate over no rows",
			sql:  `SELECT count(*) AS n, sum(w) AS s, avg(w) AS a, min(w) AS lo, max(w) AS hi FROM t WHERE v > 1000`,
			want: []exec.Row{{int64(0), nil, nil, nil, nil}},
		},
		{name: "grouped aggregate over no rows", sql: `SELECT name, count(*) AS n FROM t WHERE v > 1000 GROUP BY name`},
		{
			name: "multi-key ORDER BY DESC with NULL keys",
			sql:  `SELECT fid, name, v FROM t ORDER BY name DESC, v, fid DESC`,
			want: pick(sorted(T, func(a, b exec.Row) bool {
				if c := cmp(a[name], b[name]); c != 0 {
					return c > 0
				}
				if c := cmp(a[v], b[v]); c != 0 {
					return c < 0
				}
				return a[fid].(int64) > b[fid].(int64)
			}), fid, name, v),
			ordered: true,
		},
		{
			name: "ORDER BY a computed key",
			sql:  `SELECT fid FROM t WHERE v < 20 ORDER BY v + 1 DESC, fid`,
			want: pick(sorted(filter(T, func(r exec.Row) bool { return cmp(r[v], int64(20)) < 0 }), func(a, b exec.Row) bool {
				if c := cmp(plus1(a[v]), plus1(b[v])); c != 0 {
					return c > 0
				}
				return a[fid].(int64) < b[fid].(int64)
			}), fid),
			ordered: true,
		},
		{name: "inner join, NULL keys", sql: `SELECT fid, label FROM t JOIN u ON v = k`, want: join(false)},
		{name: "left join, NULL keys", sql: `SELECT fid, label FROM t LEFT JOIN u ON v = k`, want: join(true)},
		{
			name: "view over view",
			setup: []string{
				`CREATE VIEW a AS SELECT fid, name, v, w FROM t WHERE v > 3`,
				`CREATE VIEW b AS SELECT name, w FROM a WHERE name != 'n1'`,
			},
			sql: `SELECT name, count(*) AS n, sum(w) AS s, min(w) AS lo, max(w) AS hi FROM b GROUP BY name`,
			want: pick(group(filter(T, func(r exec.Row) bool {
				return cmp(r[v], int64(3)) > 0 && cmp(r[name], "n1") != 0
			}), name, w), 0, 1, 2, 3, 4),
		},
		{
			name: "point lookup with a residual",
			sql:  `SELECT name, v FROM t WHERE fid = 17 AND w < 1000`,
			want: pick(filter(T, func(r exec.Row) bool { return r[fid] == int64(17) && cmp(r[w], 1000.0) < 0 }), name, v),
		},
		{name: "point lookup, missing key", sql: `SELECT name FROM t WHERE fid = 4000`},
		{
			name: "k-NN with a residual",
			sql:  `SELECT fid, v FROM t WHERE geom IN st_KNN(st_makePoint(116.1, 39.1), 25) AND v > 10`,
			want: pick(filter(nearest(T, center, 25), func(r exec.Row) bool { return cmp(r[v], int64(10)) > 0 }), fid, v),
		},
		{
			// The window bounds the search (KNNOptions.Root) and q lies
			// outside it.
			name: "k-NN inside a window",
			sql: `SELECT fid FROM t WHERE geom WITHIN st_makeMBR(116.12, 39.12, 116.2, 39.2)
				AND geom IN st_KNN(st_makePoint(116.1, 39.1), 15)`,
			want: pick(nearest(filter(T, func(r exec.Row) bool {
				return geom.IntersectsMBR(r[gm].(geom.Point), geom.NewMBR(116.12, 39.12, 116.2, 39.2))
			}), center, 15), fid),
		},
		{
			name: "k-NN in a time window",
			sql:  `SELECT fid, time FROM t WHERE time BETWEEN 36000000 AND 720000000 AND geom IN st_KNN(st_makePoint(116.1, 39.1), 20)`,
			want: pick(nearest(filter(T, func(r exec.Row) bool {
				ts := r[tm].(int64)
				return ts >= 10*hourMS && ts <= 200*hourMS
			}), center, 20), fid, tm),
		},
		{
			// w is read by the residual but not projected, so the k-NN
			// scan must decode it.
			name: "k-NN with a residual outside the projection",
			sql:  `SELECT fid, name FROM t WHERE geom IN st_KNN(st_makePoint(116.05, 39.15), 30) AND w < 50`,
			want: pick(filter(nearest(T, geom.Point{Lng: 116.05, Lat: 39.15}, 30), func(r exec.Row) bool {
				return cmp(r[w], 50.0) < 0
			}), fid, name),
		},
	}
	canon := func(rows []exec.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("%#v", []any(r))
		}
		return out
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, stmt := range tc.setup {
				mustExec(t, s, stmt)
			}
			res := mustExec(t, s, tc.sql)
			defer res.Frame.Release()
			got, want := canon(res.Frame.Collect()), canon(tc.want)
			if len(want) == 0 && tc.want != nil {
				t.Fatal("reference returned no rows: the case tests nothing")
			}
			if tc.limit > 0 {
				if len(got) != tc.limit || len(want) < tc.limit {
					t.Fatalf("got %d rows of a %d-row reference, want %d", len(got), len(want), tc.limit)
				}
				in := map[string]int{}
				for _, w := range want {
					in[w]++
				}
				for _, g := range got {
					if in[g]--; in[g] < 0 {
						t.Fatalf("row %s is not in the reference result", g)
					}
				}
				return
			}
			if !tc.ordered {
				sort.Strings(got)
				sort.Strings(want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("engine and brute force differ\n got (%d): %v\nwant (%d): %v\nplan:\n%s",
					len(got), got, len(want), want, PlanString(res.Plan))
			}
		})
	}
}
