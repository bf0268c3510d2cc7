package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func TestParseType(t *testing.T) {
	cases := map[string]DataType{
		"integer": TypeInt, "int": TypeInt, "double": TypeFloat,
		"string": TypeString, "date": TypeTime, "point": TypeGeometry,
		"linestring": TypeGeometry, "st_series": TypeSTSeries,
		"t_series": TypeTSeries, "bool": TypeBool, "bytes": TypeBytes,
	}
	for s, want := range cases {
		got, ok := ParseType(s)
		if !ok || got != want {
			t.Errorf("ParseType(%q) = %v,%v, want %v", s, got, ok, want)
		}
	}
	if _, ok := ParseType("uuid"); ok {
		t.Error("unknown type should not parse")
	}
}

// testRows is n rows of (id, name, score, grp) with grp cycling g0-g2.
func testRows(n int) (*Schema, []Row) {
	schema := NewSchema(
		Field{"id", TypeInt},
		Field{"name", TypeString},
		Field{"score", TypeFloat},
		Field{"grp", TypeString},
	)
	rows := make([]Row, n)
	for i := 0; i < n; i++ {
		rows[i] = Row{int64(i), fmt.Sprintf("name-%d", i), float64(i % 10), fmt.Sprintf("g%d", i%3)}
	}
	return schema, rows
}

func TestAggregateBatchesGrouped(t *testing.T) {
	schema, all := testRows(90) // grp g0,g1,g2 x 30 each
	_, rows, err := AggregateBatches(schema, toBatches(schema, all, 32), []int{3}, []Agg{
		{Kind: AggCount, Col: "*", Name: "n"},
		{Kind: AggSum, Col: "score", Name: "total"},
		{Kind: AggMin, Col: "id", Name: "lo"},
		{Kind: AggMax, Col: "id", Name: "hi"},
		{Kind: AggAvg, Col: "score", Name: "mean"},
	}, []int{-1, 2, 0, 0, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r[1].(int64) != 30 {
			t.Errorf("group %v count = %v, want 30", r[0], r[1])
		}
		grp := r[0].(string)
		wantLo := map[string]int64{"g0": 0, "g1": 1, "g2": 2}[grp]
		if r[3].(int64) != wantLo {
			t.Errorf("group %s lo = %v, want %d", grp, r[3], wantLo)
		}
		if mean, sum := r[5].(float64), r[2].(float64); mean != sum/30 {
			t.Errorf("group %s mean inconsistent", grp)
		}
	}
}

func TestAggregateBatchesGlobalCount(t *testing.T) {
	schema, rows := testRows(100)
	_, out, err := AggregateBatches(schema, toBatches(schema, rows, 40), nil, []Agg{{Kind: AggCount, Col: "*", Name: "n"}}, []int{-1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][0].(int64) != 100 {
		t.Fatalf("global count = %v", out)
	}
}

func TestDeriveSharesAndComputes(t *testing.T) {
	schema, rows := testRows(10)
	b := BatchOf(schema, rows).WithSel([]int32{1, 3, 5})
	doubled := make([]any, b.Rows())
	for i := 0; i < b.Len(); i++ {
		p := b.Live(i)
		doubled[p] = b.Vec(0).Value(p).(int64) * 2
	}
	out := b.Derive(NewSchema(Field{"name", TypeString}, Field{"doubled", TypeInt}),
		[]Vector{*b.Vec(1), VectorOf(TypeInt, doubled)})
	want := []Row{{"name-1", int64(2)}, {"name-3", int64(6)}, {"name-5", int64(10)}}
	if got := liveRows(out); !reflect.DeepEqual(got, want) {
		t.Fatalf("derived rows = %v, want %v", got, want)
	}
	if out.Vec(1).Type != TypeInt {
		t.Fatal("conforming values must build a typed vector")
	}
	// Narrow: the same projection done in place by a batch's owner.
	b.Narrow(NewSchema(Field{"name", TypeString}, Field{"grp", TypeString}), []int{1, 3})
	want = []Row{{"name-1", "g1"}, {"name-3", "g0"}, {"name-5", "g2"}}
	if got := liveRows(b); !reflect.DeepEqual(got, want) {
		t.Fatalf("narrowed rows = %v, want %v", got, want)
	}
}

func TestHeadLimit(t *testing.T) {
	schema, rows := testRows(50)
	sorted := SortBatches(schema, toBatches(schema, rows, 16), []SortKey{{Col: 0, Desc: true}})
	top := liveRows(sorted.Head(5))
	if len(top) != 5 || top[0][0] != int64(49) || top[4][0] != int64(45) {
		t.Fatalf("top 5 = %v", top)
	}
}

// TestFrameLifecycle: a frame charges what it holds to the engine and
// per-query budgets until Release, refuses batches once its query is
// canceled or over budget, and a Bound alias shares batches at no
// charge.
func TestFrameLifecycle(t *testing.T) {
	schema, rows := testRows(64)
	root := NewContext(0)
	q := NewQuery(0)
	cctx, cancel := context.WithCancel(WithQuery(context.Background(), q))
	ctx := root.Bind(cctx)
	df := NewFrame(ctx, schema)
	if err := df.Append(BatchOf(schema, rows)); err != nil {
		t.Fatal(err)
	}
	if err := df.Append(BatchOf(schema, nil)); err != nil || len(df.Batches()) != 1 {
		t.Fatalf("empty batch must be dropped: %v, %d batches", err, len(df.Batches()))
	}
	if root.MemUsed() <= 0 || q.MemUsed() != root.MemUsed() || q.Rows() != 64 {
		t.Fatalf("accounting: engine %d query %d rows %d", root.MemUsed(), q.MemUsed(), q.Rows())
	}
	alias := df.Bound(root.Bind(context.Background()))
	if alias.Count() != 64 || root.MemUsed() != q.MemUsed() {
		t.Fatal("a Bound alias must share the batches without a second charge")
	}
	alias.Release()
	if df.Count() != 64 || root.MemUsed() == 0 {
		t.Fatal("releasing an alias must not release the shared batches")
	}
	cancel()
	if err := df.Append(BatchOf(schema, rows)); !errors.Is(err, ErrQueryCanceled) {
		t.Fatalf("append after cancel = %v, want ErrQueryCanceled", err)
	}
	df.Release()
	if root.MemUsed() != 0 || q.MemUsed() != 0 {
		t.Fatalf("after release: engine %d query %d", root.MemUsed(), q.MemUsed())
	}

	tight := root.Bind(WithQuery(context.Background(), NewQuery(256)))
	if _, err := NewDataFrame(tight, schema, rows); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("over-budget frame = %v, want ErrMemoryBudget", err)
	}
	if root.MemUsed() != 0 {
		t.Fatalf("failed append leaked %d bytes", root.MemUsed())
	}
}

func TestMemoryBudget(t *testing.T) {
	ctx := NewContext(10 << 10) // 10 KiB budget
	schema := NewSchema(Field{"s", TypeString})
	big := make([]Row, 1000)
	for i := range big {
		big[i] = Row{fmt.Sprintf("some-reasonably-long-string-%d", i)}
	}
	if _, err := NewDataFrame(ctx, schema, big); err != ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	// Small frames still fit, and Release frees budget.
	small, err := NewDataFrame(ctx, schema, big[:50])
	if err != nil {
		t.Fatal(err)
	}
	used := ctx.MemUsed()
	if used <= 0 {
		t.Fatal("no memory accounted")
	}
	small.Release()
	if ctx.MemUsed() != 0 {
		t.Fatalf("after release used = %d", ctx.MemUsed())
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b any
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{float64(3), int64(2), 1},
		{int64(2), float64(2.5), -1},
		{"a", "b", -1},
		{nil, "x", -1},
		{true, false, 1},
	}
	for _, c := range cases {
		got, ok := Compare(c.a, c.b)
		if !ok || got != c.want {
			t.Errorf("Compare(%v,%v) = %d,%v, want %d", c.a, c.b, got, ok, c.want)
		}
	}
	if _, ok := Compare("a", int64(1)); ok {
		t.Error("incomparable types should return ok=false")
	}
}

func TestSizeOfEstimates(t *testing.T) {
	cases := []struct {
		v   any
		min int64
	}{
		{nil, 1},
		{int64(5), 8},
		{"hello", 5},
		{[]byte{1, 2, 3}, 3},
		{make([]float64, 10), 80},
	}
	for _, c := range cases {
		if got := SizeOf(c.v); got < c.min {
			t.Errorf("SizeOf(%T) = %d, want >= %d", c.v, got, c.min)
		}
	}
	row := Row{int64(1), "abc", 2.5}
	if RowSize(row) < SizeOf(int64(1))+SizeOf("abc")+SizeOf(2.5) {
		t.Error("RowSize should be at least the sum of its values")
	}
}

func TestContextDefaults(t *testing.T) {
	ctx := DefaultContext()
	if err := ctx.reserve(1 << 40); err != nil {
		t.Fatal("unlimited budget should accept anything")
	}
	ctx.release(1 << 40)
}

func BenchmarkAggregateBatches(b *testing.B) {
	schema := NewSchema(Field{"g", TypeString}, Field{"v", TypeFloat})
	rows := make([]Row, 100000)
	for i := range rows {
		rows[i] = Row{fmt.Sprintf("g%d", i%100), float64(i)}
	}
	batches := toBatches(schema, rows, BatchRows)
	aggs := []Agg{{Kind: AggSum, Col: "v"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := AggregateBatches(schema, batches, []int{0}, aggs, []int{1}, 0); err != nil {
			b.Fatal(err)
		}
	}
}
