package bench

import (
	"context"
	"fmt"
	"time"

	"just/internal/baseline"
	"just/internal/core"
	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/kv"
	"just/internal/table"
	"just/internal/workload"
)

// justVariant describes one JUST configuration from Section VIII-A:
// JUST (Z2T/XZ2T, day period, compression), JUSTnc (no compression),
// JUSTd/JUSTy/JUSTc (Z3/XZ3 with day/year/century periods).
type justVariant struct {
	name        string
	compression bool
	pointIndex  string
	trajIndex   string
	period      time.Duration
}

var (
	variantJUST   = justVariant{"JUST", true, "z2t", "xz2t", 24 * time.Hour}
	variantJUSTnc = justVariant{"JUSTnc", false, "z2t", "xz2t", 24 * time.Hour}
	variantJUSTd  = justVariant{"JUSTd", true, "z3", "xz3", 24 * time.Hour}
	variantJUSTy  = justVariant{"JUSTy", true, "z3", "xz3", 365 * 24 * time.Hour}
	variantJUSTc  = justVariant{"JUSTc", true, "z3", "xz3", 36500 * 24 * time.Hour}
)

// storeOptions are the store settings of every JUST engine the harness
// opens. The paper's datasets dwarf the HBase block cache (and its
// methodology dodges it with distinct query params); the cache is sized
// well below the datasets so the reproduction does too.
func storeOptions(codec string) kv.Options {
	return kv.Options{DisableWAL: true, BlockCacheBytes: 8 << 20, Codec: codec}
}

// openJUST opens an engine for a variant, storing SSTable blocks under
// codec ("" for none), in a fresh scratch directory.
func (r *Runner) openJUST(v justVariant, codec string) (*core.Engine, error) {
	dir, err := r.scratch("just-" + r.exp + "-" + v.name + codec)
	if err != nil {
		return nil, err
	}
	return core.Open(core.Config{
		Dir:                     dir,
		Cluster:                 kv.ClusterOptions{Options: storeOptions(codec)},
		DisableFieldCompression: !v.compression,
	})
}

// dataset is one of the paper's tables at some data fraction: the JUST
// table it loads into and the comparators' records.
type dataset struct {
	tbl  string
	load func(*core.Engine, justVariant) error
	recs []baseline.Record
}

// orderSet is the Order common table (Table III: Z2 on point, Z2T — or
// the variant's strategy — on point and t).
func orderSet(orders []workload.Order) dataset {
	load := func(e *core.Engine, v justVariant) error {
		desc := &table.Desc{
			Name:    "orders",
			Columns: workload.OrderSchema(),
			Indexes: []table.IndexDesc{
				{Strategy: "attr", ID: 0},
				{Strategy: "z2", ID: 1},
				{Strategy: v.pointIndex, ID: 2, PeriodMS: v.period.Milliseconds()},
			},
		}
		if err := e.CreateTable(desc); err != nil {
			return err
		}
		return e.BulkInsert("", "orders", workload.OrderRows(orders))
	}
	return dataset{tbl: "orders", load: load, recs: orderRecords(orders)}
}

// trajSet is the Traj plugin table (Table III: XZ2 on MBR, XZ2T — or the
// variant's strategy — on MBR and start time).
func trajSet(trajs []*table.Trajectory) dataset {
	load := func(e *core.Engine, v justVariant) error {
		desc, err := table.NewDescFromPlugin("", "traj", "trajectory")
		if err != nil {
			return err
		}
		desc.Indexes = []table.IndexDesc{
			{Strategy: "attr", ID: 0},
			{Strategy: "xz2", ID: 1},
			{Strategy: v.trajIndex, ID: 2, PeriodMS: v.period.Milliseconds()},
		}
		if err := e.CreateTable(desc); err != nil {
			return err
		}
		rows, err := workload.TrajectoryRows(trajs)
		if err != nil {
			return err
		}
		return e.BulkInsert("", "traj", rows)
	}
	return dataset{tbl: "traj", load: load, recs: trajRecords(trajs)}
}

// query is one figure row's workload: a parameter set per query, of one
// type — k-NN when pts is set, spatio-temporal when tws is, else spatial.
type query struct {
	wins []geom.MBR
	tws  [][2]int64
	pts  []geom.Point
	k    int
}

func (r *Runner) sQuery(salt int64, sideKM float64) query {
	return query{wins: r.windows(salt, sideKM)}
}

func (r *Runner) stQuery(salt int64, sideKM float64, timeSalt, duration int64) query {
	return query{wins: r.windows(salt, sideKM), tws: r.timeWindows(timeSalt, duration)}
}

func (r *Runner) knnQuery(salt int64, k int) query {
	return query{pts: r.knnPoints(salt), k: k}
}

// series names the query type, as the paper's figures do.
func (q query) series() string {
	switch {
	case q.pts != nil:
		return "kNN"
	case q.tws != nil:
		return "ST"
	}
	return "S"
}

func (q query) len() int { return max(len(q.pts), len(q.wins)) }

// onJUST runs parameter set i against a JUST table and returns the hits.
func (q query) onJUST(e *core.Engine, tbl string, i int) (int, error) {
	ctx := context.Background()
	if q.pts != nil {
		rows, err := e.KNN(ctx, "", tbl, q.pts[i], q.k, core.KNNOptions{Root: workload.Region})
		return len(rows), err
	}
	iq := index.Query{Window: q.wins[i]}
	if q.tws != nil {
		tw := q.tws[i%len(q.tws)]
		iq.HasTime, iq.TMin, iq.TMax = true, tw[0], tw[1]
	}
	n := 0
	err := e.Scan(ctx, "", tbl, iq, func(exec.Row) bool { n++; return true })
	return n, err
}

// onSystem runs parameter set i against a comparator.
func (q query) onSystem(sys baseline.System, i int) (int, error) {
	switch {
	case q.pts != nil:
		recs, err := sys.KNN(q.pts[i], q.k)
		return len(recs), err
	case q.tws != nil:
		tw := q.tws[i%len(q.tws)]
		return sys.STRange(q.wins[i], tw[0], tw[1])
	}
	return sys.SpatialRange(q.wins[i])
}

// namedEngine is a loaded JUST variant.
type namedEngine struct {
	name string
	e    *core.Engine
}

// openEngines opens a fresh engine per variant and loads ds into each.
func (r *Runner) openEngines(ds dataset, variants ...justVariant) ([]namedEngine, error) {
	var es []namedEngine
	for _, v := range variants {
		e, err := r.openJUST(v, "")
		if err == nil {
			es = append(es, namedEngine{v.name, e})
			err = ds.load(e, v)
		}
		if err != nil {
			closeEngines(es)
			return nil, err
		}
	}
	return es, nil
}

func closeEngines(es []namedEngine) {
	for _, ne := range es {
		ne.e.Close()
	}
}

// namedSystem is a comparator, or the error its ingest failed with.
type namedSystem struct {
	name string
	sys  baseline.System
	err  error
}

// comparator builds one of Table VI's systems by name, with the
// paper-shaped memory budgets.
func (r *Runner) comparator(name string) (baseline.System, error) {
	b := r.clusterBudgets()
	switch name {
	case "GeoSpark":
		return baseline.NewMemGrid(0), nil
	case "LocationSpark":
		return baseline.NewMemQuad(b.locationSpark), nil
	case "SpatialSpark":
		return baseline.NewMemList(b.spatialSpark), nil
	case "Simba":
		return baseline.NewMemRTree(b.simba), nil
	case "SpatialHadoop", "ST-Hadoop":
		dir, err := r.scratch(name + "-" + r.exp)
		if err != nil {
			return nil, err
		}
		if name == "ST-Hadoop" {
			return baseline.NewDiskGridST(baseline.DiskGridConfig{Dir: dir}, 0)
		}
		return baseline.NewDiskGrid(baseline.DiskGridConfig{Dir: dir})
	}
	return nil, fmt.Errorf("bench: unknown comparator %q", name)
}

// rangeSystems are the comparators of the spatial range figures; the
// first four are the in-memory Spark systems.
var rangeSystems = []string{"GeoSpark", "LocationSpark", "SpatialSpark", "Simba", "SpatialHadoop"}

// openSystems builds the named comparators and ingests recs into each; a
// system whose ingest fails keeps the error in place of its cells.
func (r *Runner) openSystems(recs []baseline.Record, names ...string) ([]namedSystem, error) {
	var ss []namedSystem
	for _, name := range names {
		sys, err := r.comparator(name)
		if err != nil {
			closeSystems(ss)
			return nil, err
		}
		ss = append(ss, namedSystem{name, sys, sys.Ingest(recs)})
	}
	return ss, nil
}

func closeSystems(ss []namedSystem) {
	for _, ns := range ss {
		ns.sys.Close()
	}
}

// queryRow emits one query cell per engine and per comparator.
func (r *Runner) queryRow(row, tbl string, es []namedEngine, ss []namedSystem, q query) error {
	for _, ne := range es {
		err := r.measure(row, ne.name, q.series(), justMeter(ne.e), q.len(), func(i int) (int, error) {
			return q.onJUST(ne.e, tbl, i)
		})
		if err != nil {
			return err
		}
	}
	for _, ns := range ss {
		err := ns.err
		if err == nil {
			err = r.measure(row, ns.name, q.series(), r.systemMeter(ns.sys), q.len(), func(i int) (int, error) {
				return q.onSystem(ns.sys, i)
			})
		} else {
			err = r.fail(row, ns.name, q.series(), err)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// freshRow loads ds into fresh JUST variants, then into fresh
// comparators, and emits one query cell per system. Each side is closed
// before the next is built, so neither is timed beside the other's
// background work.
func (r *Runner) freshRow(row string, ds dataset, q query, variants []justVariant, systems ...string) error {
	es, err := r.openEngines(ds, variants...)
	if err != nil {
		return err
	}
	err = r.queryRow(row, ds.tbl, es, nil, q)
	closeEngines(es)
	if err != nil {
		return err
	}
	ss, err := r.openSystems(ds.recs, systems...)
	if err != nil {
		return err
	}
	defer closeSystems(ss)
	return r.queryRow(row, ds.tbl, nil, ss, q)
}

// ingestRow times loading ds into a fresh engine per variant and into
// each named comparator.
func (r *Runner) ingestRow(row string, ds dataset, variants []justVariant, systems ...string) error {
	for _, v := range variants {
		e, err := r.openJUST(v, "")
		if err != nil {
			return err
		}
		err = r.measure(row, v.name, "ingest", justMeter(e), 1, func(int) (int, error) {
			return len(ds.recs), ds.load(e, v)
		})
		e.Close()
		if err != nil {
			return err
		}
	}
	for _, name := range systems {
		sys, err := r.comparator(name)
		if err != nil {
			return err
		}
		err = r.measure(row, name, "ingest", r.systemMeter(sys), 1, func(int) (int, error) {
			return len(ds.recs), sys.Ingest(ds.recs)
		})
		sys.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
