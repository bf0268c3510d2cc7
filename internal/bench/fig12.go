package bench

import (
	"strconv"

	"just/internal/workload"
)

// stVariants are the index configurations Fig. 12 compares: the paper's
// Z2T/XZ2T against Z3/XZ3 with day, year, and century periods.
var stVariants = []justVariant{variantJUST, variantJUSTd, variantJUSTy, variantJUSTc}

// RunFig12a reproduces Fig. 12a: ST range query time on Order vs data
// size — JUST (Z2T) vs JUSTd/JUSTy/JUSTc (Z3 with growing periods). The
// paper's observations: JUST wins; larger Z3 periods beat smaller ones.
func (r *Runner) RunFig12a() error {
	for _, pct := range dataPercents {
		q := r.stQuery(int64(pct), 3, int64(pct), workload.Day)
		if err := r.freshRow(strconv.Itoa(pct), orderSet(fraction(r.Orders(), pct)), q, stVariants); err != nil {
			return err
		}
	}
	return nil
}

// stHadoopRows loads the full Order table into the Fig. 12 variants and
// its first 20% into ST-Hadoop (which only takes future-time inserts, so
// in time order), then emits one row per label.
func (r *Runner) stHadoopRows(labels []string, query func(i int) query) error {
	ds := orderSet(r.Orders())
	es, err := r.openEngines(ds, stVariants...)
	if err != nil {
		return err
	}
	defer closeEngines(es)
	ss, err := r.openSystems(byStart(orderRecords(fraction(r.Orders(), 20))), "ST-Hadoop")
	if err != nil {
		return err
	}
	defer closeSystems(ss)
	ss[0].name += "(20%)"
	for i, label := range labels {
		if err := r.queryRow(label, ds.tbl, es, ss, query(i)); err != nil {
			return err
		}
	}
	return nil
}

// RunFig12b reproduces Fig. 12b: ST range query on Order vs spatial
// window, including ST-Hadoop loaded with only 20% of the data — and
// still an order of magnitude slower (MapReduce startup + disk IO).
func (r *Runner) RunFig12b() error {
	labels := make([]string, len(windowSides))
	for i, side := range windowSides {
		labels[i] = sideRow(side)
	}
	return r.stHadoopRows(labels, func(i int) query {
		side := windowSides[i]
		return r.stQuery(1, side, int64(side), workload.Day)
	})
}

// RunFig12c reproduces Fig. 12c: ST range query on Traj vs spatial
// window — XZ2T vs XZ3 variants plus the no-compression ablation.
func (r *Runner) RunFig12c() error {
	ds := trajSet(r.Trajs())
	es, err := r.openEngines(ds, variantJUST, variantJUSTnc, variantJUSTd, variantJUSTy, variantJUSTc)
	if err != nil {
		return err
	}
	defer closeEngines(es)
	for _, side := range windowSides {
		q := r.stQuery(2, side, int64(side)+50, workload.Day)
		if err := r.queryRow(sideRow(side), ds.tbl, es, nil, q); err != nil {
			return err
		}
	}
	return nil
}

// RunFig12d reproduces Fig. 12d: ST range query on Order vs time window
// (1 hour to 1 month).
func (r *Runner) RunFig12d() error {
	labels := []string{"1h", "6h", "1d", "1w", "1m"}
	spans := []int64{workload.Hour, 6 * workload.Hour, workload.Day, workload.Week, workload.Month}
	return r.stHadoopRows(labels, func(i int) query {
		return r.stQuery(spans[i]%997, 3, spans[i]%991, spans[i])
	})
}
