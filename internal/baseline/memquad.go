package baseline

import (
	"container/heap"
	"sort"

	"just/internal/geom"
)

// quadNode is a point-region quadtree node (LocationSpark offers grid,
// R-tree, Quad-tree and IR-tree local indexes; we model its quadtree).
type quadNode struct {
	box      geom.MBR
	recs     []Record
	children *[4]*quadNode
}

const quadLeafCap = 32

func (n *quadNode) insert(r Record, depth int) {
	if n.children == nil {
		n.recs = append(n.recs, r)
		if len(n.recs) > quadLeafCap && depth < 20 {
			n.split(depth)
		}
		return
	}
	n.childFor(r.Center()).insert(r, depth+1)
}

func (n *quadNode) split(depth int) {
	quads := n.box.QuadSplit()
	var ch [4]*quadNode
	for i := range ch {
		ch[i] = &quadNode{box: quads[i]}
	}
	n.children = &ch
	recs := n.recs
	n.recs = nil
	for _, r := range recs {
		n.childFor(r.Center()).insert(r, depth+1)
	}
}

func (n *quadNode) childFor(p geom.Point) *quadNode {
	for _, c := range n.children {
		if c.box.Contains(p) {
			return c
		}
	}
	return n.children[0] // boundary ties
}

func (n *quadNode) search(win geom.MBR, pad float64, visit func(Record)) {
	padded := geom.MBR{
		MinLng: n.box.MinLng - pad, MinLat: n.box.MinLat - pad,
		MaxLng: n.box.MaxLng + pad, MaxLat: n.box.MaxLat + pad,
	}
	if !padded.Intersects(win) {
		return
	}
	for _, r := range n.recs {
		if r.Box.Intersects(win) {
			visit(r)
		}
	}
	if n.children != nil {
		for _, c := range n.children {
			c.search(win, pad, visit)
		}
	}
}

// MemQuad is the LocationSpark-like comparator: an in-memory quadtree
// over record centers.
type MemQuad struct {
	mem    memAccountant
	root   *quadNode
	maxExt float64
	count  int
	jobs   int64
}

// NewMemQuad creates the system with a memory budget (0 = unlimited).
func NewMemQuad(budgetBytes int64) *MemQuad {
	return &MemQuad{mem: memAccountant{budget: budgetBytes}}
}

// Name implements System.
func (s *MemQuad) Name() string { return "LocationSpark-like (MemQuad)" }

// Ingest implements System.
func (s *MemQuad) Ingest(recs []Record) error {
	if s.root == nil {
		s.root = &quadNode{box: geom.WorldMBR}
	}
	for _, r := range recs {
		if err := s.mem.charge(r.memSize() + 24); err != nil {
			return err
		}
		if ext := r.Box.Width(); ext > s.maxExt {
			s.maxExt = ext
		}
		if ext := r.Box.Height(); ext > s.maxExt {
			s.maxExt = ext
		}
		s.root.insert(r, 0)
		s.count++
	}
	return nil
}

// SpatialRange implements System.
func (s *MemQuad) SpatialRange(win geom.MBR) (int, error) {
	s.jobs++
	n := 0
	if s.root != nil {
		s.root.search(win, s.maxExt, func(Record) { n++ })
	}
	return n, nil
}

// STRange implements System: unsupported (Table VI).
func (s *MemQuad) STRange(win geom.MBR, tmin, tmax int64) (int, error) {
	return 0, ErrUnsupported
}

// KNN implements System: best-first traversal over quadtree nodes.
func (s *MemQuad) KNN(q geom.Point, k int) ([]Record, error) {
	// LocationSpark pays one job dispatch per query plus a driver
	// round-trip for candidate collection.
	s.jobs += 2
	if s.root == nil || k <= 0 {
		return nil, nil
	}
	h := &quadHeap{}
	heap.Push(h, quadEntry{s.root.box.MinDistance(q), s.root, nil})
	var out []Record
	for h.Len() > 0 && len(out) < k {
		e := heap.Pop(h).(quadEntry)
		if e.rec != nil {
			out = append(out, *e.rec)
			continue
		}
		n := e.node
		for i := range n.recs {
			r := &n.recs[i]
			heap.Push(h, quadEntry{geom.EuclideanDistance(q, r.Center()), nil, r})
		}
		if n.children != nil {
			for _, c := range n.children {
				heap.Push(h, quadEntry{c.box.MinDistance(q), c, nil})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return geom.EuclideanDistance(q, out[i].Center()) < geom.EuclideanDistance(q, out[j].Center())
	})
	return out, nil
}

type quadEntry struct {
	dist float64
	node *quadNode
	rec  *Record
}

type quadHeap []quadEntry

func (h quadHeap) Len() int           { return len(h) }
func (h quadHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h quadHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *quadHeap) Push(x interface{}) {
	*h = append(*h, x.(quadEntry))
}
func (h *quadHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// MemoryBytes implements System.
func (s *MemQuad) MemoryBytes() int64 { return s.mem.used }

// Counters implements System: no disk reads.
func (s *MemQuad) Counters() (jobs, bytesRead int64) { return s.jobs, 0 }

// Close implements System.
func (s *MemQuad) Close() error { return nil }
