package bench

import (
	"fmt"
	"strconv"
)

// windowSides is the paper's spatial-window axis (km per side).
var windowSides = []float64{1, 2, 3, 4, 5}

func sideRow(side float64) string { return fmt.Sprintf("%gx%g", side, side) }

// RunFig11a reproduces Fig. 11a: spatial range query time on Order vs
// data size (3x3 km default window).
func (r *Runner) RunFig11a() error {
	for _, pct := range dataPercents {
		ds := orderSet(fraction(r.Orders(), pct))
		err := r.freshRow(strconv.Itoa(pct), ds, r.sQuery(int64(pct), 3), []justVariant{variantJUST}, rangeSystems...)
		if err != nil {
			return err
		}
	}
	return nil
}

// RunFig11b reproduces Fig. 11b: spatial range query time on Traj vs
// data size. Simba OOMs beyond 20%, LocationSpark immediately
// (Section VIII-C); JUST beats JUSTnc because compression cuts disk IO.
func (r *Runner) RunFig11b() error {
	for _, pct := range dataPercents {
		ds := trajSet(fraction(r.Trajs(), pct))
		err := r.freshRow(strconv.Itoa(pct), ds, r.sQuery(int64(pct), 3),
			[]justVariant{variantJUST, variantJUSTnc}, "GeoSpark", "SpatialSpark", "Simba")
		if err != nil {
			return err
		}
	}
	return nil
}

// RunFig11c reproduces Fig. 11c: spatial range query time on Order vs
// spatial window size (100% data).
func (r *Runner) RunFig11c() error {
	ds := orderSet(r.Orders())
	es, err := r.openEngines(ds, variantJUST)
	if err != nil {
		return err
	}
	defer closeEngines(es)
	ss, err := r.openSystems(ds.recs, rangeSystems...)
	if err != nil {
		return err
	}
	defer closeSystems(ss)
	for _, side := range windowSides {
		if err := r.queryRow(sideRow(side), ds.tbl, es, ss, r.sQuery(0, side)); err != nil {
			return err
		}
	}
	return nil
}

// RunFig11d reproduces Fig. 11d: spatial range query time on Traj vs
// spatial window. As in the paper, SpatialSpark only manages 80% of the
// data (its budget), yet JUST still beats it on larger windows.
func (r *Runner) RunFig11d() error {
	ds := trajSet(r.Trajs())
	es, err := r.openEngines(ds, variantJUST, variantJUSTnc)
	if err != nil {
		return err
	}
	defer closeEngines(es)
	ss, err := r.openSystems(ds.recs, "GeoSpark")
	if err != nil {
		return err
	}
	defer closeSystems(ss)
	partial, err := r.openSystems(trajRecords(fraction(r.Trajs(), 80)), "SpatialSpark")
	if err != nil {
		return err
	}
	defer closeSystems(partial)
	partial[0].name += "(80%)"
	for _, side := range windowSides {
		if err := r.queryRow(sideRow(side), ds.tbl, es, append(ss, partial...), r.sQuery(0, side)); err != nil {
			return err
		}
	}
	return nil
}
