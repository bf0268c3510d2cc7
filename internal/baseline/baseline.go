// Package baseline implements the six comparator systems of the paper's
// evaluation (Section VIII, Table VI) as faithful mechanism models:
//
//	MemRTree   — Simba-like: in-memory STR-packed R-tree, spatial + k-NN
//	MemGrid    — GeoSpark-like: in-memory uniform grid with per-cell
//	             local indexes, no global index
//	MemQuad    — LocationSpark-like: in-memory point quadtree
//	MemList    — SpatialSpark-like: grid partitions without local indexes
//	DiskGrid   — SpatialHadoop-like: on-disk grid partition files read
//	             by one MapReduce job per query (the launch the paper
//	             blames for ST-Hadoop's latency)
//	DiskGridST — ST-Hadoop-like: DiskGrid with temporal slicing; rejects
//	             historical inserts (Table I: "ST-Hadoop only supports
//	             data updates in future time")
//
// Each in-memory system charges records and index nodes against a memory
// budget and fails ingest with ErrOutOfMemory beyond it — reproducing
// the out-of-memory failures the paper reports for Simba and
// LocationSpark on larger inputs.
//
// No system sleeps to model a cluster cost. Each counts the jobs it
// launches and the partition bytes it reads (System.Counters); the
// benchmark harness prices those counts.
package baseline

import (
	"errors"

	"just/internal/geom"
)

// Errors reported by baseline systems.
var (
	// ErrOutOfMemory reports that an in-memory system exceeded its
	// budget (Simba on 40% Traj, LocationSpark on 20% Traj, ...).
	ErrOutOfMemory = errors.New("baseline: out of memory")
	// ErrUnsupported reports a query type the system lacks (Table VI).
	ErrUnsupported = errors.New("baseline: query type not supported")
	// ErrHistoricalUpdate reports an ST-Hadoop-style rejection of
	// inserts before the current high-water mark.
	ErrHistoricalUpdate = errors.New("baseline: historical inserts not supported")
)

// Record is the indexable unit shared by all systems: an id, a bounding
// box (point records have a degenerate box), a time span, and the payload
// size used for memory accounting.
type Record struct {
	ID           int64
	Box          geom.MBR
	Start, End   int64
	PayloadBytes int
}

// Center returns the record's representative point.
func (r Record) Center() geom.Point { return r.Box.Center() }

// memSize approximates the in-memory footprint of a record.
func (r Record) memSize() int64 { return 64 + int64(r.PayloadBytes) }

// System is the query surface every comparator implements. Counts are
// returned instead of rows: the harness measures time and volume, not
// contents.
type System interface {
	// Name identifies the system in benchmark output.
	Name() string
	// Ingest bulk-loads records and builds indexes.
	Ingest(recs []Record) error
	// SpatialRange counts records whose box intersects win.
	SpatialRange(win geom.MBR) (int, error)
	// STRange counts records intersecting win during [tmin, tmax].
	STRange(win geom.MBR, tmin, tmax int64) (int, error)
	// KNN returns the k records nearest to q (Euclidean degrees).
	KNN(q geom.Point, k int) ([]Record, error)
	// MemoryBytes reports accounted memory (post-ingest).
	MemoryBytes() int64
	// Counters reports the jobs launched and the partition-file bytes
	// read by every query since the system was created.
	Counters() (jobs, bytesRead int64)
	// Close releases resources.
	Close() error
}

// memAccountant tracks a memory budget.
type memAccountant struct {
	budget int64 // 0 = unlimited
	used   int64
}

func (m *memAccountant) charge(n int64) error {
	m.used += n
	if m.budget > 0 && m.used > m.budget {
		return ErrOutOfMemory
	}
	return nil
}
