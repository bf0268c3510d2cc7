package baseline

import (
	"math"
	"sort"

	"just/internal/geom"
)

// gridIndex is a uniform grid over the data's bounding box; cells hold
// record slices.
type gridIndex struct {
	bounds geom.MBR
	cellW  float64
	cellH  float64
	cols   int
	rows   int
	cells  [][]Record
}

func buildGrid(recs []Record, cols, rows int) *gridIndex {
	g := &gridIndex{cols: cols, rows: rows}
	if len(recs) == 0 {
		g.bounds = geom.WorldMBR
	} else {
		g.bounds = recs[0].Box
		for _, r := range recs[1:] {
			g.bounds = g.bounds.Extend(r.Box)
		}
	}
	g.cellW = g.bounds.Width() / float64(cols)
	g.cellH = g.bounds.Height() / float64(rows)
	if g.cellW <= 0 {
		g.cellW = 1e-9
	}
	if g.cellH <= 0 {
		g.cellH = 1e-9
	}
	g.cells = make([][]Record, cols*rows)
	for _, r := range recs {
		// A record lands in the cell of its center (duplicate-free); box
		// queries expand by the max record extent instead.
		c := r.Center()
		x, y := g.cellOf(c)
		g.cells[y*cols+x] = append(g.cells[y*cols+x], r)
	}
	return g
}

func (g *gridIndex) cellOf(p geom.Point) (int, int) {
	x := int((p.Lng - g.bounds.MinLng) / g.cellW)
	y := int((p.Lat - g.bounds.MinLat) / g.cellH)
	if x < 0 {
		x = 0
	}
	if x >= g.cols {
		x = g.cols - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= g.rows {
		y = g.rows - 1
	}
	return x, y
}

// cellRange returns the cell rectangle overlapping win, expanded by pad
// degrees (to catch records whose center is outside the window but whose
// box overlaps it).
func (g *gridIndex) cellRange(win geom.MBR, pad float64) (x0, y0, x1, y1 int) {
	x0, y0 = g.cellOf(geom.Point{Lng: win.MinLng - pad, Lat: win.MinLat - pad})
	x1, y1 = g.cellOf(geom.Point{Lng: win.MaxLng + pad, Lat: win.MaxLat + pad})
	return
}

// MemGrid is the GeoSpark-like comparator: grid partitions with local
// per-cell indexes (sorted record lists) but no global index — each
// query visits every candidate partition.
type MemGrid struct {
	mem    memAccountant
	grid   *gridIndex
	maxExt float64 // largest record extent, for query padding
	all    []Record
	jobs   int64 // Spark jobs the driver dispatched, one per query
}

// NewMemGrid creates the system with a memory budget (0 = unlimited).
func NewMemGrid(budgetBytes int64) *MemGrid {
	return &MemGrid{mem: memAccountant{budget: budgetBytes}}
}

// Name implements System.
func (s *MemGrid) Name() string { return "GeoSpark-like (MemGrid)" }

// Ingest implements System.
func (s *MemGrid) Ingest(recs []Record) error {
	for _, r := range recs {
		if err := s.mem.charge(r.memSize()); err != nil {
			return err
		}
		ext := math.Max(r.Box.Width(), r.Box.Height())
		if ext > s.maxExt {
			s.maxExt = ext
		}
	}
	s.all = append(s.all, recs...)
	side := int(math.Sqrt(float64(len(s.all))/64)) + 1
	s.grid = buildGrid(s.all, side, side)
	if err := s.mem.charge(int64(len(s.grid.cells)) * 48); err != nil {
		return err
	}
	return nil
}

// SpatialRange implements System.
func (s *MemGrid) SpatialRange(win geom.MBR) (int, error) {
	s.jobs++
	x0, y0, x1, y1 := s.grid.cellRange(win, s.maxExt)
	n := 0
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, r := range s.grid.cells[y*s.grid.cols+x] {
				if r.Box.Intersects(win) {
					n++
				}
			}
		}
	}
	return n, nil
}

// STRange implements System: GeoSpark has no temporal support
// (Table VI); like the paper we run the spatial filter and post-filter
// time ourselves only where the paper did — so report unsupported.
func (s *MemGrid) STRange(win geom.MBR, tmin, tmax int64) (int, error) {
	return 0, ErrUnsupported
}

// KNN implements System with GeoSpark's mechanism: every partition
// computes a local k-NN over all of its records, then the driver merges
// the partial results — a full pass over the dataset per query.
func (s *MemGrid) KNN(q geom.Point, k int) ([]Record, error) {
	s.jobs++
	if k <= 0 || len(s.all) == 0 {
		return nil, nil
	}
	type cand struct {
		rec  Record
		dist float64
	}
	var cands []cand
	for ci := range s.grid.cells {
		// "Local k-NN" per partition: scan the partition fully.
		for _, r := range s.grid.cells[ci] {
			cands = append(cands, cand{r, geom.EuclideanDistance(q, r.Center())})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]Record, len(cands))
	for i, c := range cands {
		out[i] = c.rec
	}
	return out, nil
}

// MemoryBytes implements System.
func (s *MemGrid) MemoryBytes() int64 { return s.mem.used }

// Counters implements System: no disk reads.
func (s *MemGrid) Counters() (jobs, bytesRead int64) { return s.jobs, 0 }

// Close implements System.
func (s *MemGrid) Close() error { return nil }

// MemList is the SpatialSpark-like comparator: grid partitioning only,
// no local indexes — every candidate partition is fully scanned, and
// k-NN is unsupported (Table VI).
type MemList struct {
	MemGrid
}

// NewMemList creates the system with a memory budget.
func NewMemList(budgetBytes int64) *MemList {
	return &MemList{MemGrid{mem: memAccountant{budget: budgetBytes}}}
}

// Name implements System.
func (s *MemList) Name() string { return "SpatialSpark-like (MemList)" }

// KNN implements System: unsupported.
func (s *MemList) KNN(q geom.Point, k int) ([]Record, error) {
	return nil, ErrUnsupported
}

// SpatialRange implements System: scan the whole candidate stripe (the
// "huge index scan" cost the paper attributes to SpatialSpark is modeled
// by visiting every record of every candidate partition).
func (s *MemList) SpatialRange(win geom.MBR) (int, error) {
	s.jobs++
	x0, y0, x1, y1 := s.grid.cellRange(win, s.maxExt)
	n := 0
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, r := range s.grid.cells[y*s.grid.cols+x] {
				if r.Box.Intersects(win) {
					n++
				}
			}
		}
	}
	return n, nil
}
