package bench

import (
	"slices"
	"strconv"
	"time"

	"just/internal/table"
	"just/internal/workload"
)

// RunTable2 emits the dataset statistics table (Table II) at
// reproduction scale: one cell per attribute and dataset.
func (r *Runner) RunTable2() error {
	var times []int64
	for _, o := range r.Orders() {
		times = append(times, o.TMS)
	}
	r.datasetStats("Order", len(times), times)
	for _, ds := range []struct {
		name  string
		trajs []*table.Trajectory
	}{{"Traj", r.Trajs()}, {"Synthetic", r.synthetic()}} {
		times = times[:0]
		for _, t := range ds.trajs {
			for _, p := range t.Points {
				times = append(times, p.T)
			}
		}
		r.datasetStats(ds.name, len(ds.trajs), times)
	}
	return nil
}

// datasetStats emits one dataset's column of Table II; times holds the
// time of every point.
func (r *Runner) datasetStats(name string, records int, times []int64) {
	r.value("points", name, "count", float64(len(times)))
	r.value("records", name, "count", float64(records))
	r.value("raw size", name, "MiB", mib(int64(len(times))*24))
	r.value("time span", name, "days", float64(slices.Max(times)-slices.Min(times))/float64(workload.Day))
}

// RunFig10a reproduces Fig. 10a: Order storage size, JUST vs
// JUSTcompress. The paper's lesson: compressing small fields *increases*
// storage, so compression is only for big fields.
func (r *Runner) RunFig10a() error {
	for _, pct := range dataPercents {
		orders := fraction(r.Orders(), pct)
		for _, name := range []string{"JUST", "JUSTcompress"} {
			size, err := r.orderStorage(orders, name == "JUSTcompress")
			if err != nil {
				return err
			}
			r.value(strconv.Itoa(pct), name, "storage_mib", mib(size))
		}
	}
	return nil
}

// orderStorage loads orders (optionally compressing the small point
// field) and reports on-disk bytes.
func (r *Runner) orderStorage(orders []workload.Order, compressFields bool) (int64, error) {
	e, err := r.openJUST(variantJUST, "")
	if err != nil {
		return 0, err
	}
	defer e.Close()
	cols := workload.OrderSchema()
	if compressFields {
		for i := range cols {
			if cols[i].Name == "geom" {
				cols[i].Compress = "gzip" // tiny field: compression backfires
			}
		}
	}
	desc := &table.Desc{
		Name:    "orders",
		Columns: cols,
		Indexes: []table.IndexDesc{
			{Strategy: "attr", ID: 0},
			{Strategy: "z2", ID: 1},
			{Strategy: "z2t", ID: 2, PeriodMS: int64(24 * time.Hour / time.Millisecond)},
		},
	}
	if err := e.CreateTable(desc); err != nil {
		return 0, err
	}
	if err := e.BulkInsert("", "orders", workload.OrderRows(orders)); err != nil {
		return 0, err
	}
	if err := e.Cluster().Compact(); err != nil {
		return 0, err
	}
	return e.DiskSize(), nil
}

// RunFig10b reproduces Fig. 10b: Traj storage size, JUST (gzip GPS
// lists) vs JUSTnc — compression of big fields pays off hugely.
func (r *Runner) RunFig10b() error {
	for _, pct := range dataPercents {
		ds := trajSet(fraction(r.Trajs(), pct))
		for _, v := range []justVariant{variantJUST, variantJUSTnc} {
			es, err := r.openEngines(ds, v)
			if err != nil {
				return err
			}
			e := es[0].e
			err = e.Cluster().Compact()
			size := e.DiskSize()
			e.Close()
			if err != nil {
				return err
			}
			r.value(strconv.Itoa(pct), v.name, "storage_mib", mib(size))
		}
	}
	return nil
}

// RunFig10c reproduces Fig. 10c: Order indexing time across systems.
// JUST's time includes storing to disk, so the in-memory Spark systems
// are faster here — the paper reports the same.
func (r *Runner) RunFig10c() error {
	for _, pct := range dataPercents {
		ds := orderSet(fraction(r.Orders(), pct))
		if err := r.ingestRow(strconv.Itoa(pct), ds, []justVariant{variantJUST}, rangeSystems[:4]...); err != nil {
			return err
		}
	}
	return nil
}

// RunFig10d reproduces Fig. 10d: Traj indexing time. Simba runs out of
// memory from 40%, SpatialSpark at 100% (Section VIII-B); compression
// makes JUST faster than JUSTnc by shrinking the write volume.
func (r *Runner) RunFig10d() error {
	for _, pct := range dataPercents {
		ds := trajSet(fraction(r.Trajs(), pct))
		err := r.ingestRow(strconv.Itoa(pct), ds, []justVariant{variantJUST, variantJUSTnc},
			"GeoSpark", "SpatialSpark", "Simba")
		if err != nil {
			return err
		}
	}
	return nil
}
