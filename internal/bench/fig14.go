package bench

import (
	"strconv"

	"just/internal/workload"
)

// RunFig14a reproduces Fig. 14a: indexing time and storage size on the
// Synthetic dataset vs data size — both grow linearly.
func (r *Runner) RunFig14a() error {
	syn := r.synthetic()
	for _, pct := range dataPercents {
		row, ds := strconv.Itoa(pct), trajSet(fraction(syn, pct))
		e, err := r.openJUST(variantJUST, "")
		if err != nil {
			return err
		}
		err = r.measure(row, "JUST", "ingest", justMeter(e), 1, func(int) (int, error) {
			return len(ds.recs), ds.load(e, variantJUST)
		})
		if err == nil {
			err = e.Cluster().Compact()
		}
		size := e.DiskSize()
		e.Close()
		if err != nil {
			return err
		}
		r.value(row, "JUST", "storage_mib", mib(size))
	}
	return nil
}

// RunFig14b reproduces Fig. 14b: query time on Synthetic vs data size
// for k-NN, spatial (S) and spatio-temporal (ST) queries. The paper's
// key observation: ST query time is flat — the qualified time periods
// hold the same amount of data no matter how big the dataset grows.
func (r *Runner) RunFig14b() error {
	syn := r.synthetic()
	for _, pct := range dataPercents {
		// The synthetic data spreads over ~10x the base time span; a
		// 1-day window within the base span sees a constant slice of it.
		salt := int64(pct) + 300
		ds := trajSet(fraction(syn, pct))
		es, err := r.openEngines(ds, variantJUST)
		if err != nil {
			return err
		}
		for _, q := range []query{r.knnQuery(salt, defaultK), r.sQuery(salt, 3), r.stQuery(salt, 3, salt, workload.Day)} {
			if err = r.queryRow(strconv.Itoa(pct), ds.tbl, es, nil, q); err != nil {
				break
			}
		}
		closeEngines(es)
		if err != nil {
			return err
		}
	}
	return nil
}
