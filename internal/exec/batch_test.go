package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The operator tests below compare each batch operator with a
// plain-slice reference written here, over randomized rows with NULLs
// in every column and inputs split across several batches.

// randBatchRows builds a randomized dataset with NULLs across the
// typed column kinds the operators specialize on.
func randBatchRows(rng *rand.Rand, n int) (*Schema, []Row) {
	schema := NewSchema(
		Field{"id", TypeInt},
		Field{"ts", TypeTime},
		Field{"score", TypeFloat},
		Field{"grp", TypeString},
	)
	rows := make([]Row, n)
	for i := range rows {
		r := Row{int64(rng.Intn(50)), int64(rng.Intn(1000)), float64(rng.Intn(100)) / 4, fmt.Sprintf("g%d", rng.Intn(7))}
		for c := range r {
			if rng.Intn(10) == 0 {
				r[c] = nil
			}
		}
		rows[i] = r
	}
	return schema, rows
}

// toBatches splits rows into several batches, exercising cross-batch
// operator behavior.
func toBatches(schema *Schema, rows []Row, per int) []*ColumnBatch {
	var out []*ColumnBatch
	for len(rows) > 0 {
		n := per
		if n > len(rows) {
			n = len(rows)
		}
		out = append(out, BatchOf(schema, rows[:n]))
		rows = rows[n:]
	}
	return out
}

// liveRows boxes every live row of the batches.
func liveRows(batches ...*ColumnBatch) []Row {
	var out []Row
	for _, b := range batches {
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.RowAt(i))
		}
	}
	return out
}

func canonical(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	sort.Strings(out)
	return out
}

// TestBatchSelectionMatchesOracle: narrowing a batch (WithSel, chained),
// truncating it (Head) and densifying it (Compact) must keep exactly
// the rows, in order, that the same steps keep on a plain slice — and
// must leave the input batch as it was.
func TestBatchSelectionMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema, rows := randBatchRows(rng, 300)
		b := BatchOf(schema, rows)
		want := rows
		cur := b
		for step := 0; step < 3; step++ {
			var sel []int32
			var kept []Row
			for i := 0; i < cur.Len(); i++ {
				if rng.Intn(3) != 0 {
					sel = append(sel, int32(cur.Live(i)))
					kept = append(kept, want[i])
				}
			}
			cur, want = cur.WithSel(sel), kept
			if got := liveRows(cur); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: selection diverges: %d vs %d rows", seed, step, len(got), len(want))
			}
		}
		if got := liveRows(cur.Compact()); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Compact changed the live rows", seed)
		}
		if c := cur.Compact(); c.Rows() != len(want) || c.Sel != nil {
			t.Fatalf("seed %d: Compact left %d physical rows for %d live", seed, c.Rows(), len(want))
		}
		n := len(want) / 2
		if got := liveRows(cur.Head(n)); !reflect.DeepEqual(got, want[:n]) {
			t.Fatalf("seed %d: Head(%d) diverges", seed, n)
		}
		if cur.Head(len(want)+5) != cur {
			t.Fatalf("seed %d: Head past the end must return the receiver", seed)
		}
		if got := liveRows(b); !reflect.DeepEqual(got, rows) {
			t.Fatalf("seed %d: narrowing mutated the shared input batch", seed)
		}
	}
}

// refAgg is the reference aggregation: one pass over plain rows.
func refAgg(rows []Row, keyIdx []int, aggs []Agg, aggIdx []int) []Row {
	type state struct {
		key      Row
		count    []int64
		sum      []float64
		min, max []any
	}
	groups := map[string]*state{}
	var order []string
	for _, r := range rows {
		key := make(Row, len(keyIdx))
		for i, c := range keyIdx {
			key[i] = r[c]
		}
		ks := fmt.Sprintf("%#v", key)
		g := groups[ks]
		if g == nil {
			g = &state{key: key, count: make([]int64, len(aggs)), sum: make([]float64, len(aggs)),
				min: make([]any, len(aggs)), max: make([]any, len(aggs))}
			groups[ks] = g
			order = append(order, ks)
		}
		for k, c := range aggIdx {
			if c < 0 { // COUNT(*) counts every row
				g.count[k]++
				continue
			}
			if r[c] == nil { // every other aggregate skips NULL inputs
				continue
			}
			g.count[k]++
			v := r[c]
			switch x := v.(type) {
			case int64:
				g.sum[k] += float64(x)
			case float64:
				g.sum[k] += x
			}
			if cmp, _ := Compare(v, g.min[k]); g.min[k] == nil || cmp < 0 {
				g.min[k] = v
			}
			if cmp, _ := Compare(v, g.max[k]); g.max[k] == nil || cmp > 0 {
				g.max[k] = v
			}
		}
	}
	var out []Row
	for _, ks := range order {
		g := groups[ks]
		row := append(Row{}, g.key...)
		for k, a := range aggs {
			switch a.Kind {
			case AggCount:
				row = append(row, g.count[k])
			case AggSum:
				row = append(row, g.sum[k])
			case AggAvg: // over the non-NULL inputs; NULL when there are none
				if g.count[k] == 0 {
					row = append(row, nil)
				} else {
					row = append(row, g.sum[k]/float64(g.count[k]))
				}
			case AggMin:
				row = append(row, g.min[k])
			case AggMax:
				row = append(row, g.max[k])
			}
		}
		out = append(out, row)
	}
	return out
}

// TestAggregateBatchesMatchesOracle: hash aggregation over batches must
// produce exactly the groups and aggregate values of the reference,
// NULL keys and NULL inputs included.
func TestAggregateBatchesMatchesOracle(t *testing.T) {
	aggs := []Agg{
		{Kind: AggCount, Col: "*", Name: "n"},
		{Kind: AggSum, Col: "score", Name: "s"},
		{Kind: AggMin, Col: "ts", Name: "lo"},
		{Kind: AggMax, Col: "ts", Name: "hi"},
		{Kind: AggAvg, Col: "score", Name: "m"},
		{Kind: AggMax, Col: "grp", Name: "g"},
	}
	keyIdx := []int{3, 0}
	aggIdx := []int{-1, 2, 1, 1, 2, 3}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema, rows := randBatchRows(rng, 800)
		outSchema, got, err := AggregateBatches(schema, toBatches(schema, rows, 100), keyIdx, aggs, aggIdx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if names, want := outSchema.Names(), []string{"grp", "id", "n", "s", "lo", "hi", "m", "g"}; !reflect.DeepEqual(names, want) {
			t.Fatalf("seed %d: result schema %v, want %v", seed, names, want)
		}
		if !reflect.DeepEqual(canonical(got), canonical(refAgg(rows, keyIdx, aggs, aggIdx))) {
			t.Fatalf("seed %d: hash aggregation diverges from the reference", seed)
		}
	}
}

// TestAggregateBatchesDynamicColumn: a dynamically typed column (a
// computed `v + 1` over an integer column declared "double") must
// aggregate like the typed column it boxes.
func TestAggregateBatchesDynamicColumn(t *testing.T) {
	schema := NewSchema(Field{"k", TypeString}, Field{"x", TypeFloat})
	rows := []Row{{"a", int64(1)}, {"a", int64(5)}, {"b", nil}, {"b", int64(2)}}
	b := BatchOf(schema, rows)
	if v := b.Vec(1); v.Type != 0 || v.Any == nil {
		t.Fatalf("int64 values under a double field must box dynamically, got type %v", v.Type)
	}
	aggs := []Agg{{Kind: AggSum, Col: "x", Name: "s"}, {Kind: AggMin, Col: "x", Name: "lo"}, {Kind: AggCount, Col: "x", Name: "n"}}
	aggIdx := []int{1, 1, 1}
	_, got, err := AggregateBatches(schema, []*ColumnBatch{b}, []int{0}, aggs, aggIdx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonical(got), canonical(refAgg(rows, []int{0}, aggs, aggIdx))) {
		t.Fatalf("dynamic column aggregates = %v", got)
	}
	// A non-numeric value makes SUM an error, as on a string column.
	bad := BatchOf(schema, []Row{{"a", []byte("x")}})
	if _, _, err := AggregateBatches(schema, []*ColumnBatch{bad}, []int{0}, aggs[:1], aggIdx[:1], 0); err == nil {
		t.Fatal("SUM over a non-numeric value must fail")
	}
}

// TestAggregateBatchesGlobalEmpty: a global aggregate over zero rows
// yields a single row — COUNT 0, everything else NULL.
func TestAggregateBatchesGlobalEmpty(t *testing.T) {
	schema := NewSchema(Field{"x", TypeInt})
	aggs := []Agg{{Kind: AggCount, Col: "*", Name: "n"}, {Kind: AggSum, Col: "x", Name: "s"}}
	_, rows, err := AggregateBatches(schema, nil, nil, aggs, []int{-1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Row{{int64(0), nil}}; !reflect.DeepEqual(rows, want) {
		t.Fatalf("empty global aggregate: got %v, want %v", rows, want)
	}
}

// refLess is the reference ordering: per key NULLs first ascending and
// last descending, incomparable values tying.
func refLess(a, b Row, keys []SortKey) bool {
	for _, k := range keys {
		c, _ := Compare(a[k.Col], b[k.Col])
		if c != 0 {
			return (c < 0) != k.Desc
		}
	}
	return false
}

// TestSortBatchesMatchesOracle: the vector sort must order rows exactly
// as a stable slice sort with the reference comparator — multi-key,
// mixed directions, NULLs in every key column.
func TestSortBatchesMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema, rows := randBatchRows(rng, 400)
		for _, keys := range [][]SortKey{
			{{Col: 1}},
			{{Col: 1, Desc: true}},
			{{Col: 3}, {Col: 0, Desc: true}},
			{{Col: 3, Desc: true}, {Col: 2}, {Col: 1, Desc: true}},
		} {
			want := append([]Row{}, rows...)
			sort.SliceStable(want, func(i, j int) bool { return refLess(want[i], want[j], keys) })
			got := liveRows(SortBatches(schema, toBatches(schema, rows, 64), keys))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d keys %v: vector sort diverges from the reference", seed, keys)
			}
		}
	}
}

// TestSortBatchesNullsAndStability pins the NULL rule on a hand-checked
// case: NULLs first ascending, last descending, ties in input order.
func TestSortBatchesNullsAndStability(t *testing.T) {
	schema := NewSchema(Field{"k", TypeInt}, Field{"seq", TypeInt})
	rows := []Row{{int64(1), int64(0)}, {nil, int64(1)}, {int64(0), int64(2)}, {int64(1), int64(3)}, {nil, int64(4)}}
	seqs := func(b *ColumnBatch) []int64 {
		var out []int64
		for _, r := range liveRows(b) {
			out = append(out, r[1].(int64))
		}
		return out
	}
	if got, want := seqs(SortBatches(schema, toBatches(schema, rows, 2), []SortKey{{Col: 0}})), []int64{1, 4, 2, 0, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ascending = %v, want %v", got, want)
	}
	if got, want := seqs(SortBatches(schema, toBatches(schema, rows, 2), []SortKey{{Col: 0, Desc: true}})), []int64{0, 3, 2, 1, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("descending = %v, want %v", got, want)
	}
}

// refJoin is the reference join: a nested loop. NULL keys match each
// other, as NULL = NULL does in a WHERE clause.
func refJoin(left []Row, lKey int, right []Row, rKey, rightWidth int, outer bool) []Row {
	var out []Row
	for _, l := range left {
		matched := false
		for _, r := range right {
			if c, ok := Compare(l[lKey], r[rKey]); ok && c == 0 {
				matched = true
				out = append(out, append(append(Row{}, l...), r...))
			}
		}
		if !matched && outer {
			out = append(out, append(append(Row{}, l...), make(Row, rightWidth)...))
		}
	}
	return out
}

// TestJoinBatchesMatchesOracle: the hash join must return exactly the
// nested-loop join's rows, inner and left, with duplicate and NULL keys
// on both sides and an int key probing a float one.
func TestJoinBatchesMatchesOracle(t *testing.T) {
	lSchema := NewSchema(Field{"id", TypeInt}, Field{"name", TypeString})
	rSchema := NewSchema(Field{"uid", TypeFloat}, Field{"city", TypeString}, Field{"n", TypeInt})
	joined := NewSchema(append(append([]Field{}, lSchema.Fields...), rSchema.Fields...)...)
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		left := make([]Row, 120)
		for i := range left {
			left[i] = Row{int64(rng.Intn(30)), fmt.Sprintf("l%d", i)}
			if rng.Intn(8) == 0 {
				left[i][0] = nil
			}
		}
		right := make([]Row, 90)
		for i := range right {
			right[i] = Row{float64(rng.Intn(40)), fmt.Sprintf("c%d", i), nil}
			if rng.Intn(8) == 0 {
				right[i][0] = nil
			}
		}
		for _, outer := range []bool{false, true} {
			got := JoinBatches(joined, lSchema.Len(), toBatches(lSchema, left, 50), 0, toBatches(rSchema, right, 40), 0, outer)
			want := refJoin(left, 0, right, 0, rSchema.Len(), outer)
			if !reflect.DeepEqual(canonical(liveRows(got)), canonical(want)) {
				t.Fatalf("seed %d outer=%v: hash join diverges from nested loop: %d vs %d rows", seed, outer, got.Len(), len(want))
			}
		}
	}
	// No input on one side.
	left := []Row{{int64(1), "a"}}
	if got := JoinBatches(joined, 2, toBatches(lSchema, left, 8), 0, nil, 0, true); !reflect.DeepEqual(liveRows(got), []Row{{int64(1), "a", nil, nil, nil}}) {
		t.Fatalf("left join against nothing = %v", liveRows(got))
	}
	if got := JoinBatches(joined, 2, nil, 0, toBatches(rSchema, []Row{{1.0, "x", nil}}, 8), 0, false); got.Len() != 0 {
		t.Fatalf("join of nothing = %v", liveRows(got))
	}
}

// TestUngrowClearsSlot: a slot surrendered by Ungrow must come back
// all-NULL, because the batch decoder relies on unset fields staying
// NULL.
func TestUngrowClearsSlot(t *testing.T) {
	schema := NewSchema(Field{"a", TypeInt}, Field{"b", TypeString})
	b := NewColumnBatch(schema, 4)
	i := b.Grow()
	b.Col(0).Set(i, int64(7))
	b.Col(1).Set(i, "x")
	b.Ungrow()
	j := b.Grow()
	if j != i {
		t.Fatalf("slot not reused: %d then %d", i, j)
	}
	row := b.RowAt(0)
	if row[0] != nil || row[1] != nil {
		t.Fatalf("reused slot kept stale values: %v", row)
	}
}

// TestBatchRowsRoundTrip: BatchOf in, Collect out preserves rows
// exactly, typed and dynamic columns alike; short rows are NULL-padded.
func TestBatchRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schema, rows := randBatchRows(rng, 300)
	rows[7][2] = int64(3) // an int under the double field: that column boxes dynamically
	df := NewFrame(NewContext(0), schema)
	for _, b := range toBatches(schema, rows, 77) {
		if err := df.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := df.Collect(); !reflect.DeepEqual(got, rows) {
		t.Fatal("BatchOf/Collect round trip mutated rows")
	}
	if df.Count() != len(rows) {
		t.Fatalf("Count = %d, want %d", df.Count(), len(rows))
	}
	if got := liveRows(BatchOf(schema, []Row{{int64(1)}})); !reflect.DeepEqual(got, []Row{{int64(1), nil, nil, nil}}) {
		t.Fatalf("short row = %v", got)
	}
}

// TestReadersNeverMaterialize: operators read shared batches (a cached
// view serves concurrent queries), so reading an undecoded column must
// see NULLs without allocating it.
func TestReadersNeverMaterialize(t *testing.T) {
	schema := NewSchema(Field{"a", TypeInt}, Field{"b", TypeString})
	b := NewColumnBatch(schema, 2)
	b.Col(0).Set(b.Grow(), int64(2))
	b.Col(0).Set(b.Grow(), int64(1))
	batches := []*ColumnBatch{b}
	sorted := SortBatches(schema, batches, []SortKey{{Col: 1}, {Col: 0}})
	if got, want := liveRows(sorted), []Row{{int64(1), nil}, {int64(2), nil}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sort by undecoded column = %v, want %v", got, want)
	}
	if _, rows, err := AggregateBatches(schema, batches, []int{1}, []Agg{{Kind: AggCount, Col: "b", Name: "n"}}, []int{1}, 0); err != nil || !reflect.DeepEqual(rows, []Row{{nil, int64(0)}}) {
		t.Fatalf("aggregate by undecoded column = %v, %v", rows, err)
	}
	JoinBatches(NewSchema(append(append([]Field{}, schema.Fields...), schema.Fields...)...), 2, batches, 1, batches, 1, true)
	if b.Vec(1).Nulls != nil {
		t.Fatal("an operator materialized a column of its input batch")
	}
}

// TestAggregatorAddAllocatesNothingPerRow: once a batch's groups exist,
// folding it again boxes no key cell and reuses the per-batch scratch,
// whether the keys are strings, ints or NULLs.
func TestAggregatorAddAllocatesNothingPerRow(t *testing.T) {
	schema := NewSchema(Field{"s", TypeString}, Field{"i", TypeInt}, Field{"x", TypeFloat})
	rows := make([]Row, BatchRows)
	for i := range rows {
		rows[i] = Row{fmt.Sprintf("district-%d", i%7), int64(1000 + i%3), float64(i)}
		if i%11 == 0 {
			rows[i][0], rows[i][1] = nil, nil
		}
	}
	b := BatchOf(schema, rows)
	a := NewAggregator(schema, []int{0, 1}, []Agg{{Kind: AggCount, Col: "*"}, {Kind: AggSum, Col: "x"}}, []int{-1, 2})
	a.Add(b)
	if allocs := testing.AllocsPerRun(20, func() { a.Add(b) }); allocs != 0 {
		t.Fatalf("%.1f allocations per Add of %d rows, want 0", allocs, b.Len())
	}
	_, got, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, r := range got {
		n += r[2].(int64)
	}
	if want := int64(22 * BatchRows); n != want {
		t.Fatalf("counts sum to %d, want %d", n, want)
	}
}

// TestRecycleReclaim: a batch is kept unless its consumer hands it
// back, and a reclaimed batch is empty and all-NULL again.
func TestRecycleReclaim(t *testing.T) {
	schema := NewSchema(Field{"a", TypeInt})
	b := NewColumnBatch(schema, 4)
	b.Col(0).Set(b.Grow(), int64(7))
	if b.Reclaim() {
		t.Fatal("reclaimed a batch its consumer did not hand back")
	}
	b.Recycle()
	if !b.Reclaim() || b.Rows() != 0 || b.Sel != nil {
		t.Fatalf("after Reclaim: %d rows, sel %v", b.Rows(), b.Sel)
	}
	if got := b.Col(0).Value(b.Grow()); got != nil {
		t.Fatalf("refilled row reads %v, want NULL", got)
	}
	if b.Reclaim() {
		t.Fatal("one Recycle reclaimed twice")
	}
}
