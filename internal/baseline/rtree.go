package baseline

import (
	"container/heap"
	"math"
	"sort"

	"just/internal/geom"
)

// rtree is an STR (Sort-Tile-Recursive) bulk-loaded R-tree — the kind of
// in-memory global index Simba builds over its partitions.
const rtreeFanout = 16

type rtreeNode struct {
	box      geom.MBR
	children []*rtreeNode
	leaf     []Record // non-nil at leaves
}

type rtree struct {
	root  *rtreeNode
	nodes int
}

// buildRTree STR-packs records bottom-up.
func buildRTree(recs []Record) *rtree {
	if len(recs) == 0 {
		return &rtree{}
	}
	leaves := strPack(recs)
	t := &rtree{}
	level := leaves
	t.nodes += len(level)
	for len(level) > 1 {
		level = packNodes(level)
		t.nodes += len(level)
	}
	t.root = level[0]
	return t
}

// strPack sorts by x, tiles into vertical slices, sorts each by y, and
// cuts leaf pages of rtreeFanout records.
func strPack(recs []Record) []*rtreeNode {
	n := len(recs)
	sorted := make([]Record, n)
	copy(sorted, recs)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Center().Lng < sorted[j].Center().Lng
	})
	leafCount := (n + rtreeFanout - 1) / rtreeFanout
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	perSlice := (n + sliceCount - 1) / sliceCount
	var leaves []*rtreeNode
	for s := 0; s < n; s += perSlice {
		e := s + perSlice
		if e > n {
			e = n
		}
		slice := sorted[s:e]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Center().Lat < slice[j].Center().Lat
		})
		for i := 0; i < len(slice); i += rtreeFanout {
			j := i + rtreeFanout
			if j > len(slice) {
				j = len(slice)
			}
			page := slice[i:j]
			node := &rtreeNode{leaf: page, box: page[0].Box}
			for _, r := range page[1:] {
				node.box = node.box.Extend(r.Box)
			}
			leaves = append(leaves, node)
		}
	}
	return leaves
}

func packNodes(nodes []*rtreeNode) []*rtreeNode {
	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].box.Center().Lng < nodes[j].box.Center().Lng
	})
	var out []*rtreeNode
	for i := 0; i < len(nodes); i += rtreeFanout {
		j := i + rtreeFanout
		if j > len(nodes) {
			j = len(nodes)
		}
		group := nodes[i:j]
		parent := &rtreeNode{children: group, box: group[0].box}
		for _, c := range group[1:] {
			parent.box = parent.box.Extend(c.box)
		}
		out = append(out, parent)
	}
	return out
}

// search visits every record whose box intersects win.
func (t *rtree) search(win geom.MBR, visit func(Record) bool) {
	if t.root == nil {
		return
	}
	var walk func(n *rtreeNode) bool
	walk = func(n *rtreeNode) bool {
		if !n.box.Intersects(win) {
			return true
		}
		if n.leaf != nil {
			for _, r := range n.leaf {
				if r.Box.Intersects(win) {
					if !visit(r) {
						return false
					}
				}
			}
			return true
		}
		for _, c := range n.children {
			if !walk(c) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}

// knn returns the k records nearest to q via best-first traversal.
func (t *rtree) knn(q geom.Point, k int) []Record {
	if t.root == nil || k <= 0 {
		return nil
	}
	h := &entryHeap{}
	heap.Push(h, rtreeEntry{t.root.box.MinDistance(q), t.root, nil})
	var out []Record
	for h.Len() > 0 && len(out) < k {
		e := heap.Pop(h).(rtreeEntry)
		if e.rec != nil {
			out = append(out, *e.rec)
			continue
		}
		n := e.node
		if n.leaf != nil {
			for i := range n.leaf {
				r := &n.leaf[i]
				heap.Push(h, rtreeEntry{r.Box.MinDistance(q), nil, r})
			}
			continue
		}
		for _, c := range n.children {
			heap.Push(h, rtreeEntry{c.box.MinDistance(q), c, nil})
		}
	}
	return out
}

type rtreeEntry struct {
	dist float64
	node *rtreeNode
	rec  *Record
}

type entryHeap []rtreeEntry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h entryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x interface{}) {
	*h = append(*h, x.(rtreeEntry))
}
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// MemRTree is the Simba-like comparator: everything in memory under one
// global R-tree. Per Table VI it answers S and k-NN but not ST queries.
type MemRTree struct {
	mem  memAccountant
	tree *rtree
	recs []Record
	jobs int64
}

// NewMemRTree creates the system with a memory budget (0 = unlimited).
func NewMemRTree(budgetBytes int64) *MemRTree {
	return &MemRTree{mem: memAccountant{budget: budgetBytes}}
}

// Name implements System.
func (s *MemRTree) Name() string { return "Simba-like (MemRTree)" }

// Ingest implements System.
func (s *MemRTree) Ingest(recs []Record) error {
	for _, r := range recs {
		if err := s.mem.charge(r.memSize()); err != nil {
			return err
		}
	}
	s.recs = append(s.recs, recs...)
	s.tree = buildRTree(s.recs)
	// Charge index overhead: ~64 bytes per node.
	if err := s.mem.charge(int64(s.tree.nodes) * 64); err != nil {
		return err
	}
	return nil
}

// SpatialRange implements System.
func (s *MemRTree) SpatialRange(win geom.MBR) (int, error) {
	s.jobs++
	n := 0
	s.tree.search(win, func(Record) bool { n++; return true })
	return n, nil
}

// STRange implements System: unsupported (Table VI).
func (s *MemRTree) STRange(win geom.MBR, tmin, tmax int64) (int, error) {
	return 0, ErrUnsupported
}

// KNN implements System.
func (s *MemRTree) KNN(q geom.Point, k int) ([]Record, error) {
	s.jobs++
	return s.tree.knn(q, k), nil
}

// MemoryBytes implements System.
func (s *MemRTree) MemoryBytes() int64 { return s.mem.used }

// Counters implements System: one Spark job per query, no disk reads.
func (s *MemRTree) Counters() (jobs, bytesRead int64) { return s.jobs, 0 }

// Close implements System.
func (s *MemRTree) Close() error { return nil }
