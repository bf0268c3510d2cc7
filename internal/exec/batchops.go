package exec

import (
	"fmt"
	"math"
	"sort"
)

// Operators over ColumnBatch streams: hash aggregation, sort and hash
// join. They share one NULL rule — NULL equals NULL and orders before
// every value — which is also what the SQL comparison operators do.

// hashValue folds a boxed value into h; values equal under valueEq
// hash alike.
func hashValue(h uint64, v any) uint64 {
	switch x := v.(type) {
	case int64:
		return hashBits(h, math.Float64bits(float64(x)))
	case float64:
		return hashBits(h, math.Float64bits(x))
	case bool:
		if x {
			return hashBits(h, 1)
		}
		return hashBits(h, 2)
	case string:
		return hashStr(h, x)
	}
	return hashBits(h, uint64(len(fmt.Sprint(v))))
}

func hashBits(h, x uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (x >> s) & 0xff
		h *= 1099511628211
	}
	return h
}

func hashStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// batchHashes computes one hash per live row over the key columns,
// reading the typed vectors directly. Rows equal under valueEq collide.
func batchHashes(b *ColumnBatch, keyIdx []int, out []uint64) []uint64 {
	n := b.Len()
	out = out[:0]
	for i := 0; i < n; i++ {
		out = append(out, 14695981039346656037) // FNV-64a offset
	}
	for _, c := range keyIdx {
		v := &b.cols[c]
		for i := 0; i < n; i++ {
			p := b.Live(i)
			switch {
			case v.null(p):
				out[i] = hashBits(out[i], 0xa5a5a5a5)
			case intBacked(v.Type):
				// Hash ints through their float form so int64(3) and
				// float64(3) group together, as valueEq demands.
				out[i] = hashBits(out[i], math.Float64bits(float64(v.Ints[p])))
			case v.Type == TypeFloat:
				out[i] = hashBits(out[i], math.Float64bits(v.Floats[p]))
			case v.Type == TypeString:
				out[i] = hashStr(out[i], v.Strs[p])
			default:
				out[i] = hashValue(out[i], v.Value(p))
			}
		}
	}
	return out
}

// Aggregator hash-aggregates the live rows of the batches it is fed by
// the key columns (by schema position; none for a global aggregate). It
// keeps only its groups, never a batch, so a scan can feed it as it
// emits and reuse each batch once Add returns.
type Aggregator struct {
	schema         *Schema
	keyIdx, aggIdx []int
	aggs           []Agg
	table          map[uint64][]*group
	hashes         []uint64 // per-batch scratch, reused
	groups         []*group
}

// NewAggregator starts an aggregation; aggIdx holds one input column per
// aggregate, -1 for COUNT(*).
func NewAggregator(schema *Schema, keyIdx []int, aggs []Agg, aggIdx []int) *Aggregator {
	return &Aggregator{schema: schema, keyIdx: keyIdx, aggIdx: aggIdx, aggs: aggs, table: make(map[uint64][]*group)}
}

// AggregateBatches runs an Aggregator over batches. The trailing int is
// unused; it stays only because the benchmark module still passes it.
func AggregateBatches(schema *Schema, batches []*ColumnBatch, keyIdx []int, aggs []Agg, aggIdx []int, _ int) (*Schema, []Row, error) {
	a := NewAggregator(schema, keyIdx, aggs, aggIdx)
	for _, b := range batches {
		a.Add(b)
	}
	return a.Result()
}

// Add folds the live rows of b into the groups. A group's key is boxed
// once, when the group is created.
func (a *Aggregator) Add(b *ColumnBatch) {
	n := b.Len()
	if n == 0 {
		return
	}
	a.hashes = batchHashes(b, a.keyIdx, a.hashes)
	// Resolve each live row to its group once, then accumulate
	// column-at-a-time.
	a.groups = a.groups[:0]
	for i := 0; i < n; i++ {
		h := a.hashes[i]
		p := b.Live(i)
		var g *group
		for _, cand := range a.table[h] {
			if batchKeyEqual(cand.key, b, a.keyIdx, p) {
				g = cand
				break
			}
		}
		if g == nil {
			key := make(Row, len(a.keyIdx))
			for k, c := range a.keyIdx {
				key[k] = b.cols[c].Value(p)
			}
			g = &group{key: key, accs: make([]accumulator, len(a.aggs))}
			a.table[h] = append(a.table[h], g)
		}
		a.groups = append(a.groups, g)
	}
	for k, c := range a.aggIdx {
		if c < 0 { // COUNT(*)
			for _, g := range a.groups {
				g.accs[k].count++
			}
			continue
		}
		v := &b.cols[c]
		for i, g := range a.groups {
			p := b.Live(i)
			switch {
			case v.null(p):
				// SQL aggregates skip NULL inputs.
			case intBacked(v.Type):
				g.accs[k].addInt(v.Ints[p])
			case v.Type == TypeFloat:
				g.accs[k].addFloat(v.Floats[p])
			case v.Type == TypeString:
				g.accs[k].addStr(v.Strs[p])
			default:
				g.accs[k].addValue(v.Value(p))
			}
		}
	}
}

// Result returns the result schema — keys, then one column per
// aggregate — and one row per group, in no particular order.
func (a *Aggregator) Result() (*Schema, []Row, error) {
	out := aggResultSchema(a.schema, a.keyIdx, a.aggs, a.aggIdx)
	var rows []Row
	for _, gs := range a.table {
		for _, g := range gs {
			row := make(Row, 0, out.Len())
			row = append(row, g.key...)
			for k, ag := range a.aggs {
				v, err := g.accs[k].result(ag.Kind)
				if err != nil {
					return nil, nil, err
				}
				row = append(row, v)
			}
			rows = append(rows, row)
		}
	}
	// A global aggregate over no rows still yields one row: zero counts,
	// NULL everything else.
	if len(a.keyIdx) == 0 && len(rows) == 0 {
		row := make(Row, len(a.aggs))
		for i, ag := range a.aggs {
			if ag.Kind == AggCount {
				row[i] = int64(0)
			}
		}
		rows = []Row{row}
	}
	return out, rows, nil
}

func batchKeyEqual(key Row, b *ColumnBatch, keyIdx []int, p int) bool {
	for k, c := range keyIdx {
		if !cellEq(key[k], &b.cols[c], p) {
			return false
		}
	}
	return true
}

// cellEq is valueEq(x, v.Value(p)), read from the typed vector when x
// has the vector's type, so that matching a row to its group boxes
// nothing. A group key has the type of the column it was taken from.
func cellEq(x any, v *Vector, p int) bool {
	if x == nil || v.null(p) {
		return x == nil && v.null(p)
	}
	switch x := x.(type) {
	case int64:
		if intBacked(v.Type) {
			return x == v.Ints[p]
		}
	case float64:
		if v.Type == TypeFloat {
			return cmpFloat(x, v.Floats[p]) == 0
		}
	case string:
		if v.Type == TypeString {
			return x == v.Strs[p]
		}
	}
	return valueEq(x, v.Value(p))
}

// rowRef addresses one physical row of a batch; a nil batch stands for
// an all-NULL row (the unmatched side of a left join).
type rowRef struct {
	b *ColumnBatch
	p int32
}

// compareAt is Compare over row pa of va and row pb of vb, without
// boxing when both vectors share a primitive type: NULL sorts first,
// and ok is false for values that cannot be compared.
func compareAt(va *Vector, pa int32, vb *Vector, pb int32) (c int, ok bool) {
	na, nb := va.null(int(pa)), vb.null(int(pb))
	switch {
	case na && nb:
		return 0, true
	case na:
		return -1, true
	case nb:
		return 1, true
	case intBacked(va.Type) && intBacked(vb.Type):
		return cmpInt(va.Ints[pa], vb.Ints[pb]), true
	case va.Type == TypeFloat && vb.Type == TypeFloat:
		return cmpFloat(va.Floats[pa], vb.Floats[pb]), true
	case va.Type == TypeString && vb.Type == TypeString:
		x, y := va.Strs[pa], vb.Strs[pb]
		switch {
		case x < y:
			return -1, true
		case x > y:
			return 1, true
		}
		return 0, true
	}
	return Compare(va.Value(int(pa)), vb.Value(int(pb)))
}

// gather copies the referenced rows, in order, into one dense batch
// over schema. Column c of every referenced batch must have the same
// storage type, which holds for the batches of one frame.
func gather(schema *Schema, refs []rowRef) *ColumnBatch {
	out := NewColumnBatch(schema, len(refs))
	out.n = len(refs)
	for c := range out.cols {
		var dst *Vector
		for i, r := range refs {
			if r.b == nil || r.b.cols[c].null(int(r.p)) {
				continue
			}
			src := &r.b.cols[c]
			if dst == nil {
				out.cols[c].Type = src.Type
				dst = out.Col(c)
			}
			dst.Nulls[i] = false
			switch {
			case intBacked(src.Type):
				dst.Ints[i] = src.Ints[r.p]
			case src.Type == TypeFloat:
				dst.Floats[i] = src.Floats[r.p]
			case src.Type == TypeString:
				dst.Strs[i] = src.Strs[r.p]
			case src.Type == TypeBool:
				dst.Bools[i] = src.Bools[r.p]
			default:
				dst.Any[i] = src.Any[r.p]
			}
		}
	}
	return out
}

// SortKey orders by the column at position Col.
type SortKey struct {
	Col  int
	Desc bool
}

// SortBatches stable-sorts the live rows of batches by keys — NULLs
// first ascending, last descending, incomparable values tying — and
// returns them as one dense batch over schema. The comparator reads the
// typed vectors; payload columns are touched only by the final copy.
func SortBatches(schema *Schema, batches []*ColumnBatch, keys []SortKey) *ColumnBatch {
	total := 0
	for _, b := range batches {
		total += b.Len()
	}
	refs := make([]rowRef, 0, total)
	for _, b := range batches {
		for i, n := 0, b.Len(); i < n; i++ {
			refs = append(refs, rowRef{b, int32(b.Live(i))})
		}
	}
	sort.SliceStable(refs, func(i, j int) bool {
		x, y := refs[i], refs[j]
		for _, k := range keys {
			if c, _ := compareAt(&x.b.cols[k.Col], x.p, &y.b.cols[k.Col], y.p); c != 0 {
				return (c < 0) != k.Desc
			}
		}
		return false
	})
	return gather(schema, refs)
}

// JoinBatches hash-joins left and right on equality of one key column
// each (NULL keys match each other), building on the right key vectors
// and probing with the left. outer keeps unmatched left rows with NULL
// right columns. The result is one dense batch over schema: its first
// nLeft columns are the left side's, the rest the right side's.
func JoinBatches(schema *Schema, nLeft int, left []*ColumnBatch, lKey int, right []*ColumnBatch, rKey int, outer bool) *ColumnBatch {
	build := make(map[uint64][]rowRef)
	lKeys, rKeys := []int{lKey}, []int{rKey}
	var hashes []uint64
	for _, b := range right {
		hashes = batchHashes(b, rKeys, hashes)
		for i, h := range hashes {
			build[h] = append(build[h], rowRef{b, int32(b.Live(i))})
		}
	}
	var lRefs, rRefs []rowRef
	for _, b := range left {
		hashes = batchHashes(b, lKeys, hashes)
		for i, h := range hashes {
			l := rowRef{b, int32(b.Live(i))}
			matched := false
			for _, r := range build[h] {
				if c, ok := compareAt(&b.cols[lKey], l.p, &r.b.cols[rKey], r.p); ok && c == 0 {
					matched = true
					lRefs, rRefs = append(lRefs, l), append(rRefs, r)
				}
			}
			if !matched && outer {
				lRefs, rRefs = append(lRefs, l), append(rRefs, rowRef{})
			}
		}
	}
	l := gather(&Schema{Fields: schema.Fields[:nLeft]}, lRefs)
	r := gather(&Schema{Fields: schema.Fields[nLeft:]}, rRefs)
	return l.Derive(schema, append(l.cols, r.cols...))
}
