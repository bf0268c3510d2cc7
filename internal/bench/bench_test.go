package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

func tinyRunner(t *testing.T, out *bytes.Buffer) *Runner {
	t.Helper()
	r := NewRunner(Options{
		Dir:     t.TempDir(),
		Out:     out,
		Scale:   ScaleSmall,
		Queries: 3,
		Seed:    1,
	})
	// Shrink datasets further for unit tests.
	r.sz = sizes{orderN: 3000, trajN: 60, trajPoints: 100, syntheticMult: 2}
	return r
}

// runCells runs experiments on a tiny runner and decodes the cells.
func runCells(t *testing.T, ids ...string) []cell {
	t.Helper()
	var out bytes.Buffer
	r := tinyRunner(t, &out)
	for _, id := range ids {
		if err := r.Run(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	var cells []cell
	dec := json.NewDecoder(&out)
	for dec.More() {
		var c cell
		if err := dec.Decode(&c); err != nil {
			t.Fatal(err)
		}
		cells = append(cells, c)
	}
	return cells
}

// find returns the cell of one experiment, row, system and series.
func find(t *testing.T, cells []cell, exp, row, system, series string) cell {
	t.Helper()
	for _, c := range cells {
		if c.Exp == exp && c.Row == row && c.System == system && c.Series == series {
			return c
		}
	}
	t.Fatalf("no cell %s/%s/%s/%s", exp, row, system, series)
	return cell{}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "codecs", "cluster",
		"fig10a", "fig10b", "fig10c", "fig10d",
		"fig11a", "fig11b", "fig11c", "fig11d",
		"fig12a", "fig12b", "fig12c", "fig12d",
		"fig13a", "fig13b", "fig13c", "fig13d",
		"fig14a", "fig14b",
	}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("experiments = %v", got)
	}
	for _, id := range want {
		if _, ok := registry[id]; !ok {
			t.Fatalf("missing experiment %s", id)
		}
	}
	r := tinyRunner(t, &bytes.Buffer{})
	if err := r.Run("nope"); err == nil {
		t.Fatal("unknown id should fail")
	}
}

// TestEveryExperimentEmitsCells runs every experiment and checks that
// each cell is exactly one of: a time with its counts, on a modeled
// clock no faster than the measured one; a plain value; or a failure
// marked without a time.
func TestEveryExperimentEmitsCells(t *testing.T) {
	cells := runCells(t, Experiments()...)
	perExp := map[string]int{}
	for _, c := range cells {
		perExp[c.Exp]++
		switch {
		case c.Fail != "":
			if c.Fail != "OOM" && c.Fail != "n/a" {
				t.Errorf("unknown failure %+v", c)
			}
			if c.MeasuredMS != 0 || c.ModeledMS != 0 || c.Counts != nil || c.Value != nil {
				t.Errorf("failure cell carries a result: %+v", c)
			}
		case c.Value != nil:
			if c.MeasuredMS != 0 || c.ModeledMS != 0 || c.Counts != nil {
				t.Errorf("value cell carries a time: %+v", c)
			}
		default:
			if c.MeasuredMS <= 0 || c.ModeledMS < c.MeasuredMS {
				t.Errorf("clocks: measured %g modeled %g in %+v", c.MeasuredMS, c.ModeledMS, c)
			}
			if c.Counts == nil {
				t.Errorf("timed cell without counts: %+v", c)
			}
		}
		if c.Row == "" || c.System == "" || c.Series == "" {
			t.Errorf("unlabeled cell %+v", c)
		}
	}
	for _, id := range Experiments() {
		if perExp[id] == 0 {
			t.Errorf("%s emitted no cells", id)
		}
	}

	// Compression reads fewer bytes (Fig. 11b): JUST against JUSTnc over
	// the same windows, summed over the rows.
	var just, nc int64
	for _, pct := range []string{"20", "40", "60", "80", "100"} {
		just += find(t, cells, "fig11b", pct, "JUST", "S").Counts.BytesRead
		nc += find(t, cells, "fig11b", pct, "JUSTnc", "S").Counts.BytesRead
	}
	if just >= nc {
		t.Errorf("fig11b bytes read per query: JUST %d, JUSTnc %d", just, nc)
	}
}

func TestTable2(t *testing.T) {
	cells := runCells(t, "table2")
	for _, ds := range []string{"Traj", "Order", "Synthetic"} {
		for _, row := range []string{"points", "records"} {
			if c := find(t, cells, "table2", row, ds, "count"); *c.Value <= 0 {
				t.Fatalf("%s %s = %g", ds, row, *c.Value)
			}
		}
	}
}

func TestClusterExperimentRuns(t *testing.T) {
	cells := runCells(t, "cluster")
	for _, mode := range []string{"standalone", "loopback", "tcp"} {
		find(t, cells, "cluster", mode, "JUST", "ingest")
		find(t, cells, "cluster", mode, "JUST", "ST")
	}
}

func TestFig10aCompressionShape(t *testing.T) {
	cells := runCells(t, "fig10a")
	find(t, cells, "fig10a", "100", "JUSTcompress", "storage_mib")
}

func TestFig10bCompressionWins(t *testing.T) {
	cells := runCells(t, "fig10b")
	just := *find(t, cells, "fig10b", "100", "JUST", "storage_mib").Value
	nc := *find(t, cells, "fig10b", "100", "JUSTnc", "storage_mib").Value
	if just >= nc {
		t.Fatalf("compression should shrink storage: JUST=%g JUSTnc=%g", just, nc)
	}
}

func TestFig12aAllVariantsRun(t *testing.T) {
	// Timing order is asserted at real scale (EXPERIMENTS.md); the unit
	// test verifies every variant produces a clean measurement. The
	// deterministic Z2T-beats-Z3 property is tested at the index level
	// (index.TestZ2TSelectivity).
	cells := runCells(t, "fig12a")
	for _, v := range stVariants {
		if c := find(t, cells, "fig12a", "100", v.name, "ST"); c.Fail != "" || c.MeasuredMS <= 0 {
			t.Fatalf("bad measurement %+v", c)
		}
	}
}

func TestFig13bOOMShape(t *testing.T) {
	cells := runCells(t, "fig13b")
	if c := find(t, cells, "fig13b", "100", "Simba", "kNN"); c.Fail != "OOM" {
		t.Fatalf("expected Simba OOM: %+v", c)
	}
}

func TestFig14bSTFlat(t *testing.T) {
	cells := runCells(t, "fig14b")
	find(t, cells, "fig14b", "100", "JUST", "ST")
}
