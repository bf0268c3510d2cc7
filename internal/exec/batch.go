package exec

// Columnar batches: what the scan produces and every operator above it
// consumes. A ColumnBatch holds a fixed run of rows as typed column
// vectors plus a selection vector, so decode, filter, project, join,
// sort and aggregate run without boxing every value into a Row. Rows
// exist only at the edges: BatchOf where a row source enters, RowAt
// where a result leaves.

// BatchRows is the default number of rows per ColumnBatch. Small enough
// that a batch of wide rows stays cache-resident, large enough to
// amortize per-batch overhead across the scan pipeline.
const BatchRows = 256

// Vector is one typed column of a ColumnBatch. Exactly one of the data
// slices is populated, chosen by Type; Nulls marks SQL NULLs. Values at
// unselected row positions are undefined — late materialization fills
// only the rows that survived earlier predicates.
type Vector struct {
	// Type selects the storage. The zero Type is a dynamically typed
	// column, boxed in Any: a computed expression whose values do not
	// all match the type its schema field declares (VectorOf).
	Type DataType
	// Nulls[i] reports whether row i is NULL in this column. A nil
	// Nulls slice means the column has not been materialized at all.
	Nulls []bool

	Ints   []int64   // TypeInt, TypeTime
	Floats []float64 // TypeFloat
	Strs   []string  // TypeString
	Bools  []bool    // TypeBool
	Any    []any     // TypeGeometry, TypeBytes, TypeSTSeries, TypeTSeries, dynamic
}

// intBacked reports whether the vector stores into Ints.
func intBacked(t DataType) bool { return t == TypeInt || t == TypeTime }

// alloc materializes the vector's storage for n rows, all NULL.
func (v *Vector) alloc(n int) {
	v.Nulls = make([]bool, n)
	for i := range v.Nulls {
		v.Nulls[i] = true
	}
	switch {
	case intBacked(v.Type):
		v.Ints = make([]int64, n)
	case v.Type == TypeFloat:
		v.Floats = make([]float64, n)
	case v.Type == TypeString:
		v.Strs = make([]string, n)
	case v.Type == TypeBool:
		v.Bools = make([]bool, n)
	default:
		v.Any = make([]any, n)
	}
}

// null reports whether row i is NULL; an unmaterialized vector is
// all-NULL.
func (v *Vector) null(i int) bool { return v.Nulls == nil || v.Nulls[i] }

// Value boxes the value at row i (nil for NULL or unmaterialized).
func (v *Vector) Value(i int) any {
	if v.null(i) {
		return nil
	}
	switch {
	case intBacked(v.Type):
		return v.Ints[i]
	case v.Type == TypeFloat:
		return v.Floats[i]
	case v.Type == TypeString:
		return v.Strs[i]
	case v.Type == TypeBool:
		return v.Bools[i]
	default:
		return v.Any[i]
	}
}

// Set stores a boxed value at row i. The value must match the vector
// type (the natives produced by the codec and Row values).
func (v *Vector) Set(i int, val any) {
	if val == nil {
		v.Nulls[i] = true
		return
	}
	v.Nulls[i] = false
	switch {
	case intBacked(v.Type):
		v.Ints[i] = val.(int64)
	case v.Type == TypeFloat:
		v.Floats[i] = val.(float64)
	case v.Type == TypeString:
		v.Strs[i] = val.(string)
	case v.Type == TypeBool:
		v.Bools[i] = val.(bool)
	default:
		v.Any[i] = val
	}
}

// memSize estimates the vector's heap footprint over n rows.
func (v *Vector) memSize(n int) int64 {
	if v.Nulls == nil {
		return 0
	}
	total := int64(n) // Nulls
	switch {
	case intBacked(v.Type):
		total += int64(n) * 8
	case v.Type == TypeFloat:
		total += int64(n) * 8
	case v.Type == TypeBool:
		total += int64(n)
	case v.Type == TypeString:
		for i := 0; i < n; i++ {
			total += 16
			if !v.Nulls[i] {
				total += int64(len(v.Strs[i]))
			}
		}
	default:
		for i := 0; i < n; i++ {
			if !v.Nulls[i] {
				total += SizeOf(v.Any[i])
			} else {
				total += 8
			}
		}
	}
	return total
}

// ColumnBatch is a run of rows in columnar form. Columns materialize
// lazily: a scan decodes filter columns first, narrows Sel, then
// decodes the remaining projected columns only for surviving rows.
type ColumnBatch struct {
	Schema *Schema
	// Sel is the selection vector: physical row indices, in order, that
	// are live. nil means all n rows are live.
	Sel      []int32
	cols     []Vector
	n        int
	cap      int
	recycled bool // the consumer handed the batch back (Recycle)
}

// NewColumnBatch returns an empty batch for schema with row capacity c.
func NewColumnBatch(schema *Schema, c int) *ColumnBatch {
	b := &ColumnBatch{Schema: schema, cols: make([]Vector, schema.Len()), cap: c}
	for i := range b.cols {
		b.cols[i].Type = schema.Fields[i].Type
	}
	return b
}

// Recycle hands a batch back to the scan that emitted it, which refills
// it once the emit call returns instead of allocating a new one. Only a
// consumer that keeps neither the batch nor anything derived from it,
// and has not narrowed it, may call it; a batch is kept by default.
func (b *ColumnBatch) Recycle() { b.recycled = true }

// Reclaim is the producer's half of Recycle: when the consumer handed b
// back, it empties b for refilling — no rows, no selection, every
// materialized vector NULL — and reports true.
func (b *ColumnBatch) Reclaim() bool {
	if !b.recycled {
		return false
	}
	for b.n > 0 {
		b.Ungrow()
	}
	b.Sel, b.recycled = nil, false
	return true
}

// Cap returns the batch's row capacity.
func (b *ColumnBatch) Cap() int { return b.cap }

// Rows returns the physical row count (before selection).
func (b *ColumnBatch) Rows() int { return b.n }

// Len returns the live row count (after selection).
func (b *ColumnBatch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// Grow appends one physical row (initially NULL in every materialized
// column) and returns its index.
func (b *ColumnBatch) Grow() int {
	i := b.n
	b.n++
	return i
}

// Ungrow drops the most recently grown physical row, re-NULLing it in
// every materialized column so the next Grow can reuse the slot — the
// scan path decodes a row's filter columns, rejects it, and recycles
// the slot for the next candidate.
func (b *ColumnBatch) Ungrow() {
	b.n--
	for c := range b.cols {
		if b.cols[c].Nulls != nil {
			b.cols[c].Nulls[b.n] = true
		}
	}
}

// Col returns the vector for column c, materializing it on first use.
func (b *ColumnBatch) Col(c int) *Vector {
	v := &b.cols[c]
	if v.Nulls == nil {
		v.alloc(b.cap)
	}
	return v
}

// Vec returns column c for reading. Unlike Col it never materializes:
// batches are shared between plan nodes, cached views and concurrent
// queries, so operators only read them.
func (b *ColumnBatch) Vec(c int) *Vector { return &b.cols[c] }

// Live returns the physical index of the i'th live row.
func (b *ColumnBatch) Live(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return i
}

// RowAt boxes the i'th *live* row into a Row. Columns never
// materialized come back nil, matching the projected row decode.
func (b *ColumnBatch) RowAt(i int) Row {
	row := make(Row, len(b.cols))
	b.readRow(b.Live(i), row)
	return row
}

// readRow boxes physical row p into row.
func (b *ColumnBatch) readRow(p int, row Row) {
	for c := range b.cols {
		if b.cols[c].Nulls != nil {
			row[c] = b.cols[c].Value(p)
		}
	}
}

// conforms reports whether val can be stored in a vector of type t.
func conforms(t DataType, val any) bool {
	if val == nil || anyBacked(t) {
		return true
	}
	switch val.(type) {
	case int64:
		return intBacked(t)
	case float64:
		return t == TypeFloat
	case string:
		return t == TypeString
	case bool:
		return t == TypeBool
	}
	return false
}

func anyBacked(t DataType) bool {
	return !intBacked(t) && t != TypeFloat && t != TypeString && t != TypeBool
}

// VectorOf turns boxed values into the vector of a column declared as
// t: typed storage when every value conforms, a dynamic vector that
// keeps vals otherwise. Schemas of computed projections declare a
// best-guess type (`v + 1` is "double" whatever v is), so the values
// decide the storage, not the declaration.
func VectorOf(t DataType, vals []any) Vector {
	for _, val := range vals {
		if !conforms(t, val) {
			t = 0
			break
		}
	}
	v := Vector{Type: t}
	if anyBacked(t) {
		v.Nulls = make([]bool, len(vals))
		v.Any = vals
		for i, val := range vals {
			v.Nulls[i] = val == nil
		}
		return v
	}
	v.alloc(len(vals))
	for i, val := range vals {
		v.Set(i, val)
	}
	return v
}

// BatchOf boxes rows into one dense batch over schema: the edge where a
// row source (a point lookup, k-NN neighbours, an aggregate's groups,
// an analysis operator's output) enters the engine. Rows shorter than
// the schema are NULL-padded.
func BatchOf(schema *Schema, rows []Row) *ColumnBatch {
	b := &ColumnBatch{Schema: schema, cols: make([]Vector, schema.Len()), n: len(rows), cap: len(rows)}
	var vals []any // one column's values; reused unless the vector kept it
	for c := range b.cols {
		if vals == nil {
			vals = make([]any, len(rows))
		}
		for i, r := range rows {
			vals[i] = nil
			if c < len(r) {
				vals[i] = r[c]
			}
		}
		if b.cols[c] = VectorOf(schema.Fields[c].Type, vals); b.cols[c].Any != nil {
			vals = nil
		}
	}
	return b
}

// MemSize estimates the batch's heap footprint, the unit the per-query
// memory budget is charged in.
func (b *ColumnBatch) MemSize() int64 {
	total := int64(64) + int64(len(b.Sel))*4
	for c := range b.cols {
		total += b.cols[c].memSize(b.n)
	}
	return total
}

// WithSel returns a batch sharing the receiver's vectors under a new
// selection. Operators never narrow a batch in place: a batch may be
// shared with a cached view or an earlier plan node.
func (b *ColumnBatch) WithSel(sel []int32) *ColumnBatch {
	out := *b
	out.Sel = sel
	return &out
}

// Derive returns a batch over schema with the receiver's rows and
// selection whose columns are cols — vectors shared from the receiver
// (a projection) or computed over its physical rows (an expression).
func (b *ColumnBatch) Derive(schema *Schema, cols []Vector) *ColumnBatch {
	return &ColumnBatch{Schema: schema, Sel: b.Sel, cols: cols, n: b.n, cap: b.cap}
}

// Narrow drops every column but idx — strictly ascending positions —
// and rebinds the batch to schema, in place and without allocating.
// Only a batch's sole owner may narrow it: the consumer of a scan, on a
// batch no frame holds yet. Everything downstream shares batches and
// uses Derive.
func (b *ColumnBatch) Narrow(schema *Schema, idx []int) {
	for i, j := range idx {
		b.cols[i] = b.cols[j]
	}
	clear(b.cols[len(idx):]) // release the dropped vectors
	b.cols = b.cols[:len(idx)]
	b.Schema = schema
}

// Compact copies the live rows into a dense batch, so a selective
// filter does not pin the vectors of every row it rejected.
func (b *ColumnBatch) Compact() *ColumnBatch {
	refs := make([]rowRef, b.Len())
	for i := range refs {
		refs[i] = rowRef{b, int32(b.Live(i))}
	}
	return gather(b.Schema, refs)
}

// Head returns the batch narrowed to its first n live rows (the
// receiver itself when it has no more than n).
func (b *ColumnBatch) Head(n int) *ColumnBatch {
	if b.Len() <= n {
		return b
	}
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(b.Live(i))
	}
	return b.WithSel(sel)
}
