// Package just is the public embedded API of the JUST engine — the Go
// reproduction of "JUST: JD Urban Spatio-Temporal Data Engine"
// (ICDE 2020). It manages large spatio-temporal datasets on an LSM
// key-value substrate with the paper's Z2T/XZ2T space-filling-curve
// indexes, runs JustQL (a SQL dialect with spatio-temporal predicates
// and analysis operators), and answers spatial range, spatio-temporal
// range and k-NN queries.
//
// Quick start:
//
//	eng, err := just.Open(just.Config{Dir: "/tmp/just-data"})
//	sess := eng.Session("alice")
//	sess.Execute(`CREATE TABLE pts (fid integer:primary key, time date, geom point)`)
//	sess.Execute(`INSERT INTO pts VALUES (1, '2019-10-01 08:00:00', st_makePoint(116.4, 39.9))`)
//	rs, err := sess.ExecuteQuery(`SELECT fid FROM pts
//	    WHERE geom WITHIN st_makeMBR(116, 39, 117, 40)
//	    AND time BETWEEN '2019-10-01' AND '2019-10-02'`)
//	for rs.HasNext() {
//	    row := rs.Next()
//	    ...
//	}
package just

import (
	"context"
	"time"

	"just/internal/core"
	"just/internal/exec"
	"just/internal/geom"
	"just/internal/kv"
	"just/internal/sql"
	"just/internal/table"
)

// Re-exported core types so callers never import internal packages.
type (
	// Point is a WGS84 longitude/latitude point.
	Point = geom.Point
	// TPoint is a timestamped point (Unix milliseconds).
	TPoint = geom.TPoint
	// MBR is a minimum bounding rectangle.
	MBR = geom.MBR
	// Geometry is any spatial value (Point, *LineString, *Polygon, ...).
	Geometry = geom.Geometry
	// LineString is a polyline geometry.
	LineString = geom.LineString
	// Polygon is a polygon geometry with optional holes.
	Polygon = geom.Polygon
	// Row is one record; see exec.Row for the value conventions.
	Row = exec.Row
	// DataFrame is the distributed result abstraction.
	DataFrame = exec.DataFrame
	// Trajectory is the native view of a trajectory-plugin row.
	Trajectory = table.Trajectory
	// Neighbor is one k-NN result.
	Neighbor = core.Neighbor
	// TableDesc is a catalog descriptor for programmatic table creation.
	TableDesc = table.Desc
	// Column is one table column definition.
	Column = table.Column
)

// NewMBR builds a normalized MBR from two corners.
func NewMBR(lng1, lat1, lng2, lat2 float64) MBR { return geom.NewMBR(lng1, lat1, lng2, lat2) }

// SquareAround builds an approximate square window (meters on a side)
// centered at p — the paper's "N×N km spatial window".
func SquareAround(p Point, sideMeters float64) MBR { return geom.SquareAround(p, sideMeters) }

// Config tunes an engine; Dir is required.
type Config struct {
	// Dir is the storage root directory.
	Dir string
	// MemoryBudget caps in-memory DataFrame bytes (0 = unlimited).
	MemoryBudget int64
	// Shards is the index shard count (0 = 4).
	Shards int
	// Period is the Z2T/XZ2T time-period length (0 = 24h).
	Period time.Duration
	// ViewTTL evicts idle views (0 = never).
	ViewTTL time.Duration
	// DisableWAL trades durability for bulk-load speed.
	DisableWAL bool
	// DisableFieldCompression turns off the paper's compression
	// mechanism (the JUSTnc variant).
	DisableFieldCompression bool
	// Codec picks the SSTable block and WAL envelope codec: "none",
	// "gzip" or "lz4" ("" = none). Existing tables keep their per-block
	// codec; future flushes and compactions use this one.
	Codec string
}

// Engine is an embedded JUST instance.
type Engine struct {
	core *core.Engine
}

// Open creates or reopens an engine.
func Open(cfg Config) (*Engine, error) {
	c, err := core.Open(core.Config{
		Dir:          cfg.Dir,
		MemoryBudget: cfg.MemoryBudget,
		Shards:       cfg.Shards,
		Period:       cfg.Period,
		ViewTTL:      cfg.ViewTTL,
		Cluster: kv.ClusterOptions{
			Options: kv.Options{
				DisableWAL: cfg.DisableWAL,
				Codec:      cfg.Codec,
			},
		},
		DisableFieldCompression: cfg.DisableFieldCompression,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{core: c}, nil
}

// Close shuts the engine down.
func (e *Engine) Close() error { return e.core.Close() }

// Session opens a JustQL session in the given user namespace ("" =
// public). Sessions share the engine's execution context.
func (e *Engine) Session(user string) *Session {
	return &Session{sess: sql.NewSession(e.core, user), user: user, engine: e}
}

// Core exposes the underlying engine for advanced integrations and the
// benchmark harness.
func (e *Engine) Core() *core.Engine { return e.core }

// Flush persists buffered writes.
func (e *Engine) Flush() error { return e.core.Flush() }

// DiskSize reports total on-disk bytes.
func (e *Engine) DiskSize() int64 { return e.core.DiskSize() }

// CreateTable registers a table programmatically (the JustQL CREATE
// TABLE path is Session.Execute).
func (e *Engine) CreateTable(desc *TableDesc) error { return e.core.CreateTable(desc) }

// CreateTrajectoryTable registers a trajectory plugin table.
func (e *Engine) CreateTrajectoryTable(user, name string) error {
	return e.core.CreateTableAs(user, name, "trajectory")
}

// Insert writes rows into a table.
func (e *Engine) Insert(user, name string, rows []Row) error {
	return e.core.Insert(user, name, rows)
}

// BulkInsert parallelizes ingest and flushes at the end.
func (e *Engine) BulkInsert(user, name string, rows []Row) error {
	return e.core.BulkInsert(user, name, rows)
}

// InsertTrajectories bulk-loads trajectories into a plugin table.
func (e *Engine) InsertTrajectories(user, name string, trajs []*Trajectory) error {
	rows := make([]Row, len(trajs))
	for i, tr := range trajs {
		row, err := tr.Row()
		if err != nil {
			return err
		}
		rows[i] = row
	}
	return e.core.BulkInsert(user, name, rows)
}

// SpatialRange answers a spatial range query.
func (e *Engine) SpatialRange(user, name string, window MBR) (*DataFrame, error) {
	return e.core.SpatialRange(context.Background(), user, name, window)
}

// STRange answers a spatio-temporal range query ([tmin, tmax] in Unix
// milliseconds, inclusive).
func (e *Engine) STRange(user, name string, window MBR, tmin, tmax int64) (*DataFrame, error) {
	return e.core.STRange(context.Background(), user, name, window, tmin, tmax)
}

// KNN answers a k-nearest-neighbor query (Algorithm 1 of the paper).
func (e *Engine) KNN(user, name string, q Point, k int) ([]Neighbor, error) {
	return e.core.KNN(context.Background(), user, name, q, k, core.KNNOptions{})
}

// Session executes JustQL.
type Session struct {
	sess   *sql.Session
	engine *Engine
	user   string
}

// User returns the session's namespace.
func (s *Session) User() string { return s.user }

// Execute runs any JustQL statement. DDL/DML return a nil ResultSet with
// the engine's message available via the error being nil.
func (s *Session) Execute(justql string) (*ResultSet, error) {
	res, err := s.sess.Execute(justql)
	if err != nil {
		return nil, err
	}
	return newResultSet(res), nil
}

// ExecuteQuery is an alias of Execute matching the paper's SDK snippet
// (Fig. 2): `rs := client.executeQuery(sql)`.
func (s *Session) ExecuteQuery(justql string) (*ResultSet, error) {
	return s.Execute(justql)
}
