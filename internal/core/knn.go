package core

import (
	"container/heap"
	"context"
	"fmt"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/table"
)

// KNNOptions tune Algorithm 1.
type KNNOptions struct {
	// MinAreaDeg is the system parameter g: areas at most this wide (in
	// degrees) are queried instead of split. The paper uses 1 km × 1 km;
	// 0.01° ≈ 1.1 km of latitude.
	MinAreaDeg float64
	// Root bounds the search; zero value means the whole world.
	Root geom.MBR
	// TMin/TMax optionally restrict candidates in time.
	HasTime    bool
	TMin, TMax int64
}

func (o KNNOptions) withDefaults() KNNOptions {
	if o.MinAreaDeg <= 0 {
		o.MinAreaDeg = 0.01
	}
	if o.Root == (geom.MBR{}) {
		o.Root = geom.WorldMBR
	}
	return o
}

// Neighbor is one k-NN result.
type Neighbor struct {
	Row      exec.Row
	Distance float64 // Euclidean degrees, the paper's experimental choice
}

// candidate heap: max-heap by distance so the worst candidate pops first.
type candHeap []Neighbor

func (h candHeap) Len() int            { return len(h) }
func (h candHeap) Less(i, j int) bool  { return h[i].Distance > h[j].Distance }
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(Neighbor)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// area heap: min-heap by dA(q, a).
type areaEntry struct {
	mbr  geom.MBR
	dist float64
}
type areaHeap []areaEntry

func (h areaHeap) Len() int            { return len(h) }
func (h areaHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h areaHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *areaHeap) Push(x interface{}) { *h = append(*h, x.(areaEntry)) }
func (h *areaHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// KNN answers a k-nearest-neighbor query with the paper's Algorithm 1:
// iterative area expansion over spatial range queries, pruned by
// Lemma 1 (dA(q, a) > dmax with a full candidate queue stops the
// search). Results come back ordered nearest first.
func (e *Engine) KNN(ctx context.Context, user, name string, q geom.Point, k int, opts KNNOptions) ([]Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	t, err := e.OpenTable(user, name)
	if err != nil {
		return nil, err
	}
	gi := t.GeomIndex()
	if gi < 0 {
		return nil, fmt.Errorf("core: table %s has no geometry column", name)
	}
	fi := t.FidIndex()

	// Meta-table shortcut (Section IV-D: meta tables aid query
	// optimization): when the table holds at most k records, the answer
	// is the whole table; area expansion would futilely exhaust the grid.
	if n := e.catalog.RecordCount(t.Desc.User, t.Desc.Name); n > 0 && n <= int64(k)*2 {
		return e.knnByFullScan(ctx, t, q, k, opts)
	}

	cq := &candHeap{} // candidate queue, max size k (Line 1)
	aq := &areaHeap{} // area queue (Line 2)
	heap.Push(aq, areaEntry{mbr: opts.Root, dist: opts.Root.MinDistance(q)})
	dmax := 0.0 // Line 3
	seen := map[string]bool{}

	for aq.Len() > 0 { // Line 4
		if err := exec.MapCtxErr(ctx.Err()); err != nil {
			return nil, err
		}
		a := heap.Pop(aq).(areaEntry) // Line 5
		if cq.Len() == k && a.dist > dmax {
			break // Line 6-7: Area Pruning (Lemma 1)
		}
		if a.mbr.Width() > opts.MinAreaDeg || a.mbr.Height() > opts.MinAreaDeg {
			for _, child := range a.mbr.QuadSplit() { // Line 8-9
				heap.Push(aq, areaEntry{mbr: child, dist: child.MinDistance(q)})
			}
			continue
		}
		// Line 10: spatial range query by a.
		iq := index.Query{Window: a.mbr, HasTime: opts.HasTime, TMin: opts.TMin, TMax: opts.TMax}
		err := t.ScanQuery(ctx, iq, func(row exec.Row) bool {
			fid := string(table.FIDBytes(row[fi]))
			if seen[fid] {
				return true // quadrant-boundary duplicate
			}
			seen[fid] = true
			g, ok := row[gi].(geom.Geometry)
			if !ok {
				return true
			}
			d := geom.DistanceToGeometry(q, g)
			if cq.Len() < k {
				heap.Push(cq, Neighbor{Row: row.Clone(), Distance: d})
			} else if d < (*cq)[0].Distance {
				(*cq)[0] = Neighbor{Row: row.Clone(), Distance: d}
				heap.Fix(cq, 0)
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		if cq.Len() == k { // Line 11: update dmax
			dmax = (*cq)[0].Distance
		}
	}
	// Line 12: return cq, nearest first.
	out := make([]Neighbor, cq.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(cq).(Neighbor)
	}
	return out, nil
}

// knnByFullScan answers tiny-table k-NN queries with one scan.
func (e *Engine) knnByFullScan(ctx context.Context, t *table.Table, q geom.Point, k int, opts KNNOptions) ([]Neighbor, error) {
	gi := t.GeomIndex()
	cq := &candHeap{}
	iq := index.Query{Window: opts.Root, HasTime: opts.HasTime, TMin: opts.TMin, TMax: opts.TMax}
	err := t.ScanQuery(ctx, iq, func(row exec.Row) bool {
		g, ok := row[gi].(geom.Geometry)
		if !ok {
			return true
		}
		d := geom.DistanceToGeometry(q, g)
		if cq.Len() < k {
			heap.Push(cq, Neighbor{Row: row.Clone(), Distance: d})
		} else if d < (*cq)[0].Distance {
			(*cq)[0] = Neighbor{Row: row.Clone(), Distance: d}
			heap.Fix(cq, 0)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, cq.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(cq).(Neighbor)
	}
	return out, nil
}
