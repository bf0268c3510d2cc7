package bench

import "strconv"

const defaultK = 100 // Table IV's default k

// ks is the paper's k axis.
var ks = []int{50, 100, 150, 200, 250}

// RunFig13a reproduces Fig. 13a: k-NN query time on Order vs data size.
func (r *Runner) RunFig13a() error {
	for _, pct := range dataPercents {
		ds := orderSet(fraction(r.Orders(), pct))
		err := r.freshRow(strconv.Itoa(pct), ds, r.knnQuery(int64(pct), defaultK), []justVariant{variantJUST},
			"GeoSpark", "LocationSpark", "Simba", "SpatialHadoop")
		if err != nil {
			return err
		}
	}
	return nil
}

// RunFig13b reproduces Fig. 13b: k-NN on Traj vs data size — Simba OOMs
// from 40% as in the paper.
func (r *Runner) RunFig13b() error {
	for _, pct := range dataPercents {
		ds := trajSet(fraction(r.Trajs(), pct))
		err := r.freshRow(strconv.Itoa(pct), ds, r.knnQuery(int64(pct)+500, defaultK),
			[]justVariant{variantJUST, variantJUSTnc}, "GeoSpark", "Simba")
		if err != nil {
			return err
		}
	}
	return nil
}

// knnByK loads ds once into the variants and the comparators and emits
// one row per k; salt keeps each figure's query points its own.
func (r *Runner) knnByK(ds dataset, salt int64, variants []justVariant, systems ...string) error {
	es, err := r.openEngines(ds, variants...)
	if err != nil {
		return err
	}
	defer closeEngines(es)
	ss, err := r.openSystems(ds.recs, systems...)
	if err != nil {
		return err
	}
	defer closeSystems(ss)
	for _, k := range ks {
		if err := r.queryRow(strconv.Itoa(k), ds.tbl, es, ss, r.knnQuery(int64(k)+salt, k)); err != nil {
			return err
		}
	}
	return nil
}

// RunFig13c reproduces Fig. 13c: k-NN on Order vs k.
func (r *Runner) RunFig13c() error {
	return r.knnByK(orderSet(r.Orders()), 1000, []justVariant{variantJUST}, "GeoSpark", "LocationSpark", "Simba")
}

// RunFig13d reproduces Fig. 13d: k-NN on Traj vs k.
func (r *Runner) RunFig13d() error {
	return r.knnByK(trajSet(r.Trajs()), 2000, []justVariant{variantJUST, variantJUSTnc}, "GeoSpark")
}
