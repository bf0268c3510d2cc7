package core

import (
	"container/heap"
	"context"
	"fmt"
	"math"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
)

// cellDeg is Algorithm 1's system parameter g, in degrees: the side of
// the first area searched around q. The paper uses 1 km × 1 km; 0.01° ≈
// 1.1 km of latitude.
const cellDeg = 0.01

// KNNOptions bound a k-NN query.
type KNNOptions struct {
	// Root bounds the search; zero value means the whole world.
	Root geom.MBR
	// TMin/TMax optionally restrict candidates in time.
	HasTime    bool
	TMin, TMax int64
	// Needed marks the columns the caller reads (nil = all). The
	// geometry and time columns are always decoded; other columns come
	// back nil in the neighbours' rows.
	Needed []bool
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

// KNN answers a k-nearest-neighbor query with the paper's Algorithm 1,
// expanding by squares: each round scans S = [q ± r] ∩ Root with one
// range query and keeps the k nearest rows in a fresh heap. Every row
// outside S lies at least r away, so by Lemma 1 the search stops once the
// heap is full and its worst distance dmax is below r, or once S covers
// Root. Otherwise r grows: to just past dmax when the heap is full (the
// k candidates then lie inside the next square, which is the last), to
// 2r when it is not. Results come back ordered nearest first.
func (e *Engine) KNN(ctx context.Context, user, name string, q geom.Point, k int, opts KNNOptions) ([]Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	root := opts.Root
	if root == (geom.MBR{}) {
		root = geom.WorldMBR
	}
	t, err := e.OpenTable(user, name)
	if err != nil {
		return nil, err
	}
	gi := t.GeomIndex()
	if gi < 0 {
		return nil, fmt.Errorf("core: table %s has no geometry column", name)
	}

	// The first square is one cell around q, grown to reach Root when q
	// lies outside it.
	r := math.Max(cellDeg/2, root.MinDistance(q))
	for {
		// A row outside S lies at least r away in floating point too: no
		// float lies strictly between fl(q+r) and q+r, so a coordinate
		// beyond S's rounded edge is at least r from q's, and the
		// distance, rounded monotonically, is at least r.
		s := geom.MBR{MinLng: q.Lng - r, MinLat: q.Lat - r, MaxLng: q.Lng + r, MaxLat: q.Lat + r}
		var cq candHeap
		iq := index.Query{Window: s.Clip(root), HasTime: opts.HasTime, TMin: opts.TMin, TMax: opts.TMax}
		err := t.ScanBatches(ctx, iq, opts.Needed, func(b *exec.ColumnBatch) bool {
			gv := b.Vec(gi)
			for i := 0; i < b.Len(); i++ {
				g, ok := gv.Value(b.Live(i)).(geom.Geometry)
				if !ok {
					continue
				}
				// Rank on the vector; box a row only when it enters the heap.
				switch d := geom.DistanceToGeometry(q, g); {
				case len(cq) < k:
					heap.Push(&cq, Neighbor{Row: b.RowAt(i), Distance: d})
				case d < cq[0].Distance:
					cq[0] = Neighbor{Row: b.RowAt(i), Distance: d}
					heap.Fix(&cq, 0)
				}
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		full := len(cq) == k
		if full && cq[0].Distance < r || s.ContainsMBR(root) {
			out := make([]Neighbor, len(cq))
			for i := len(out) - 1; i >= 0; i-- {
				out[i] = heap.Pop(&cq).(Neighbor)
			}
			return out, nil
		}
		if full && cq[0].Distance >= r {
			r = math.Nextafter(cq[0].Distance, math.Inf(1))
		} else {
			r *= 2 // a NaN dmax fails the test above and doubles too
		}
	}
}
