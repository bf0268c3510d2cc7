package baseline

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"just/internal/geom"
)

// DiskGrid is the SpatialHadoop-like comparator: records live in on-disk
// grid partition files; each query is a MapReduce job that reads and
// filters every overlapping partition from disk. The system counts the
// jobs and the bytes (Counters); the launch the paper blames for
// ST-Hadoop's latency ("it is expensive for ST-Hadoop to start a
// MapReduce job") is priced by whoever reads the counts.
type DiskGrid struct {
	dir          string
	grid         geom.MBR
	cols, rows   int
	cellW, cellH float64
	maxExt       float64
	counts       []int
	bytesOnDisk  int64
	jobs         int64
	bytesRead    int64
}

// DiskGridConfig tunes the system.
type DiskGridConfig struct {
	// Dir is the partition-file directory (required).
	Dir string
	// Cells per axis; default 32.
	Cells int
}

// NewDiskGrid creates the system.
func NewDiskGrid(cfg DiskGridConfig) (*DiskGrid, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("baseline: DiskGrid needs a directory")
	}
	if cfg.Cells <= 0 {
		cfg.Cells = 32
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	return &DiskGrid{dir: cfg.Dir, cols: cfg.Cells, rows: cfg.Cells}, nil
}

// Name implements System.
func (s *DiskGrid) Name() string { return "SpatialHadoop-like (DiskGrid)" }

// Ingest implements System: partitions records into grid cell files.
func (s *DiskGrid) Ingest(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	if s.counts == nil {
		s.grid = recs[0].Box
		for _, r := range recs[1:] {
			s.grid = s.grid.Extend(r.Box)
		}
		s.cellW = s.grid.Width() / float64(s.cols)
		s.cellH = s.grid.Height() / float64(s.rows)
		if s.cellW <= 0 {
			s.cellW = 1e-9
		}
		if s.cellH <= 0 {
			s.cellH = 1e-9
		}
		s.counts = make([]int, s.cols*s.rows)
	}
	// The counts take the records only once every partition file they
	// went to has flushed and closed cleanly.
	writers := map[int]*bufio.Writer{}
	files := map[int]*os.File{}
	added := make([]int, len(s.counts))
	var written int64
	var err error
	for _, r := range recs {
		if ext := math.Max(r.Box.Width(), r.Box.Height()); ext > s.maxExt {
			s.maxExt = ext
		}
		cell := s.cellOf(r.Center())
		w, ok := writers[cell]
		if !ok {
			var f *os.File
			if f, err = os.OpenFile(s.cellPath(cell), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
				break
			}
			files[cell] = f
			w = bufio.NewWriterSize(f, 64<<10)
			writers[cell] = w
		}
		var n int
		if n, err = writeRecord(w, r); err != nil {
			break
		}
		written += int64(n)
		added[cell]++
	}
	for cell, w := range writers {
		err = errors.Join(err, w.Flush(), files[cell].Close())
	}
	if err != nil {
		return err
	}
	for cell, n := range added {
		s.counts[cell] += n
	}
	s.bytesOnDisk += written
	return nil
}

func (s *DiskGrid) cellOf(p geom.Point) int {
	x := int((p.Lng - s.grid.MinLng) / s.cellW)
	y := int((p.Lat - s.grid.MinLat) / s.cellH)
	if x < 0 {
		x = 0
	}
	if x >= s.cols {
		x = s.cols - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= s.rows {
		y = s.rows - 1
	}
	return y*s.cols + x
}

func (s *DiskGrid) cellPath(cell int) string {
	return filepath.Join(s.dir, fmt.Sprintf("part-%05d.bin", cell))
}

// recordSize is the fixed on-disk record layout: id + box + times +
// payload length (payload bytes themselves are zero-filled).
func writeRecord(w io.Writer, r Record) (int, error) {
	var buf [8 * 8]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(r.ID))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.Box.MinLng))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(r.Box.MinLat))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(r.Box.MaxLng))
	binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(r.Box.MaxLat))
	binary.LittleEndian.PutUint64(buf[40:], uint64(r.Start))
	binary.LittleEndian.PutUint64(buf[48:], uint64(r.End))
	binary.LittleEndian.PutUint64(buf[56:], uint64(r.PayloadBytes))
	if _, err := w.Write(buf[:]); err != nil {
		return 0, err
	}
	// Write the payload body so disk IO volume is honest.
	if r.PayloadBytes > 0 {
		if _, err := w.Write(make([]byte, r.PayloadBytes)); err != nil {
			return 0, err
		}
	}
	return 64 + r.PayloadBytes, nil
}

// readRecords visits a partition file's records and returns the bytes
// it read. Only a clean end of file at a record boundary ends the file;
// a truncated record is an error, so a damaged partition never reads as
// a shorter one.
func readRecords(path string, visit func(Record) bool) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 256<<10)
	var n int64
	var buf [64]byte
	for {
		if _, err := io.ReadFull(r, buf[:]); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, fmt.Errorf("baseline: read %s: %w", path, err)
		}
		rec := Record{
			ID: int64(binary.LittleEndian.Uint64(buf[0:])),
			Box: geom.MBR{
				MinLng: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
				MinLat: math.Float64frombits(binary.LittleEndian.Uint64(buf[16:])),
				MaxLng: math.Float64frombits(binary.LittleEndian.Uint64(buf[24:])),
				MaxLat: math.Float64frombits(binary.LittleEndian.Uint64(buf[32:])),
			},
			Start:        int64(binary.LittleEndian.Uint64(buf[40:])),
			End:          int64(binary.LittleEndian.Uint64(buf[48:])),
			PayloadBytes: int(binary.LittleEndian.Uint64(buf[56:])),
		}
		if rec.PayloadBytes > 0 {
			if _, err := io.CopyN(io.Discard, r, int64(rec.PayloadBytes)); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return n, fmt.Errorf("baseline: read %s: %w", path, err)
			}
		}
		n += 64 + int64(rec.PayloadBytes)
		if !visit(rec) {
			return n, nil
		}
	}
}

// SpatialRange implements System.
func (s *DiskGrid) SpatialRange(win geom.MBR) (int, error) {
	s.jobs++
	if s.counts == nil {
		return 0, nil
	}
	n := 0
	err := s.visitCells(win, func(r Record) bool {
		if r.Box.Intersects(win) {
			n++
		}
		return true
	})
	return n, err
}

func (s *DiskGrid) visitCells(win geom.MBR, visit func(Record) bool) error {
	x0 := int((win.MinLng - s.maxExt - s.grid.MinLng) / s.cellW)
	x1 := int((win.MaxLng + s.maxExt - s.grid.MinLng) / s.cellW)
	y0 := int((win.MinLat - s.maxExt - s.grid.MinLat) / s.cellH)
	y1 := int((win.MaxLat + s.maxExt - s.grid.MinLat) / s.cellH)
	clampI := func(v, hi int) int {
		if v < 0 {
			return 0
		}
		if v > hi {
			return hi
		}
		return v
	}
	x0, x1 = clampI(x0, s.cols-1), clampI(x1, s.cols-1)
	y0, y1 = clampI(y0, s.rows-1), clampI(y1, s.rows-1)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			cell := y*s.cols + x
			if s.counts[cell] == 0 {
				continue
			}
			n, err := readRecords(s.cellPath(cell), visit)
			s.bytesRead += n
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// STRange implements System: SpatialHadoop itself has no temporal
// filtering (Table VI).
func (s *DiskGrid) STRange(win geom.MBR, tmin, tmax int64) (int, error) {
	return 0, ErrUnsupported
}

// KNN implements System: expanding window over partition files, one job
// per expansion (SpatialHadoop's kNN runs iterative MapReduce jobs).
func (s *DiskGrid) KNN(q geom.Point, k int) ([]Record, error) {
	if s.counts == nil {
		return nil, nil
	}
	side := math.Max(s.cellW, s.cellH)
	for iter := 0; iter < 12; iter++ {
		s.jobs++ // each expansion is a new job
		win := geom.MBR{
			MinLng: q.Lng - side, MinLat: q.Lat - side,
			MaxLng: q.Lng + side, MaxLat: q.Lat + side,
		}
		var cands []distRecord
		err := s.visitCells(win, func(r Record) bool {
			d := geom.EuclideanDistance(q, r.Center())
			if d <= side { // within the guaranteed-complete radius
				cands = append(cands, distRecord{r, d})
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		if len(cands) >= k {
			sortCands(cands)
			out := make([]Record, k)
			for i := 0; i < k; i++ {
				out[i] = cands[i].rec
			}
			return out, nil
		}
		side *= 2
	}
	// Fall back to everything we can see.
	var out []Record
	err := s.visitCells(geom.WorldMBR, func(r Record) bool {
		out = append(out, r)
		return true
	})
	if err != nil {
		return nil, err
	}
	sortByDist(out, q)
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

type distRecord struct {
	rec  Record
	dist float64
}

func sortCands(cands []distRecord) {
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].dist < cands[j-1].dist; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}

func sortByDist(recs []Record, q geom.Point) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && geom.EuclideanDistance(q, recs[j].Center()) < geom.EuclideanDistance(q, recs[j-1].Center()); j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

// MemoryBytes implements System: disk-based systems hold almost nothing
// in memory.
func (s *DiskGrid) MemoryBytes() int64 { return int64(len(s.counts)) * 8 }

// Counters implements System.
func (s *DiskGrid) Counters() (jobs, bytesRead int64) { return s.jobs, s.bytesRead }

// DiskBytes reports the partition-file volume.
func (s *DiskGrid) DiskBytes() int64 { return s.bytesOnDisk }

// Close implements System.
func (s *DiskGrid) Close() error { return nil }

// DiskGridST is the ST-Hadoop-like comparator: DiskGrid plus temporal
// slicing (one sub-directory per time slice) and the Table I limitation
// that only future-time inserts are accepted.
type DiskGridST struct {
	dir       string
	sliceMS   int64
	slices    map[int64]*DiskGrid
	highWater int64
	cells     int
	jobs      int64 // one per query; the slices' own job counts stay 0
}

// NewDiskGridST creates the system; sliceMS defaults to one day.
func NewDiskGridST(cfg DiskGridConfig, sliceMS int64) (*DiskGridST, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("baseline: DiskGridST needs a directory")
	}
	if cfg.Cells <= 0 {
		cfg.Cells = 16
	}
	if sliceMS <= 0 {
		sliceMS = 24 * 3600 * 1000
	}
	return &DiskGridST{
		dir:       cfg.Dir,
		sliceMS:   sliceMS,
		slices:    map[int64]*DiskGrid{},
		highWater: math.MinInt64,
		cells:     cfg.Cells,
	}, nil
}

// Name implements System.
func (s *DiskGridST) Name() string { return "ST-Hadoop-like (DiskGridST)" }

// Ingest implements System. Records older than the high-water mark are
// rejected (ST-Hadoop's historical-insert limitation).
func (s *DiskGridST) Ingest(recs []Record) error {
	for _, r := range recs {
		if s.highWater != math.MinInt64 && r.Start < s.highWater {
			return ErrHistoricalUpdate
		}
	}
	bySlice := map[int64][]Record{}
	for _, r := range recs {
		slice := r.Start / s.sliceMS
		bySlice[slice] = append(bySlice[slice], r)
		if r.Start > s.highWater {
			s.highWater = r.Start
		}
	}
	for slice, rs := range bySlice {
		g, ok := s.slices[slice]
		if !ok {
			var err error
			g, err = NewDiskGrid(DiskGridConfig{
				Dir:   filepath.Join(s.dir, fmt.Sprintf("slice-%d", slice)),
				Cells: s.cells,
			})
			if err != nil {
				return err
			}
			s.slices[slice] = g
		}
		if err := g.Ingest(rs); err != nil {
			return err
		}
	}
	return nil
}

// SpatialRange implements System: a full-span temporal query.
func (s *DiskGridST) SpatialRange(win geom.MBR) (int, error) {
	return s.STRange(win, math.MinInt64/2, math.MaxInt64/2)
}

// STRange implements System.
func (s *DiskGridST) STRange(win geom.MBR, tmin, tmax int64) (int, error) {
	s.jobs++
	lo := floorDiv(tmin, s.sliceMS)
	hi := floorDiv(tmax, s.sliceMS)
	n := 0
	for slice, g := range s.slices {
		if slice < lo || slice > hi {
			continue
		}
		err := g.visitCells(win, func(r Record) bool {
			if r.Box.Intersects(win) && r.Start <= tmax && r.End >= tmin {
				n++
			}
			return true
		})
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// KNN implements System: ST-Hadoop inherits SpatialHadoop's kNN; run it
// over all slices.
func (s *DiskGridST) KNN(q geom.Point, k int) ([]Record, error) {
	s.jobs++
	var all []Record
	for _, g := range s.slices {
		err := g.visitCells(geom.WorldMBR, func(r Record) bool {
			all = append(all, r)
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	sortByDist(all, q)
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// MemoryBytes implements System.
func (s *DiskGridST) MemoryBytes() int64 {
	var total int64
	for _, g := range s.slices {
		total += g.MemoryBytes()
	}
	return total
}

// Counters implements System: the slices' partition reads, one job per
// query.
func (s *DiskGridST) Counters() (jobs, bytesRead int64) {
	for _, g := range s.slices {
		bytesRead += g.bytesRead
	}
	return s.jobs, bytesRead
}

// DiskBytes reports total partition-file volume.
func (s *DiskGridST) DiskBytes() int64 {
	var total int64
	for _, g := range s.slices {
		total += g.DiskBytes()
	}
	return total
}

// Close implements System.
func (s *DiskGridST) Close() error { return nil }
