package table

import (
	"context"
	"testing"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/kv"
)

// bg is the context of tests that exercise no deadline or cancellation.
var bg = context.Background()

// insertRows loads fixture rows through the one production write path.
func insertRows(tbl *Table, rows ...exec.Row) error { return tbl.InsertBatchCtx(bg, rows) }

// rowMatches is the window predicate over a fully decoded row: the
// record's MBR intersects the window and its time span overlaps.
func rowMatches(tbl *Table, row exec.Row, q index.Query) bool {
	if tbl.geomIdx >= 0 {
		g, _ := row[tbl.geomIdx].(geom.Geometry)
		if g == nil || !g.MBR().Intersects(q.Window) {
			return false
		}
	}
	if q.HasTime && tbl.timeIdx >= 0 {
		start, _ := row[tbl.timeIdx].(int64)
		end := start
		if tbl.endIdx >= 0 {
			if e, ok := row[tbl.endIdx].(int64); ok {
				end = e
			}
		}
		if start > q.TMax || end < q.TMin {
			return false
		}
	}
	return true
}

// scanOracle is the brute-force reference for index-planned scans: it
// walks every entry of the attribute index in key order, decodes the
// whole row and applies the window predicate to it — no index plan, no
// zone hints, no staged decode. Columns outside needed and outside the
// window filter set are cleared, as ScanProjected leaves them.
func scanOracle(t testing.TB, tbl *Table, q index.Query, needed []bool) []exec.Row {
	t.Helper()
	filter := tbl.filterCols()
	var rows []exec.Row
	var derr error
	err := kv.ScanRange(bg, tbl.cluster, index.KeysUnder(tbl.keyPrefix(tbl.attrID)), func(_, v []byte) bool {
		row, err := tbl.codec.Decode(v)
		if err != nil {
			derr = err
			return false
		}
		if !rowMatches(tbl, row, q) {
			return true
		}
		for i := range row {
			if needed != nil && !needed[i] && (filter == nil || !filter[i]) {
				row[i] = nil
			}
		}
		rows = append(rows, row)
		return true
	})
	if err != nil || derr != nil {
		t.Fatalf("oracle scan: %v / %v", err, derr)
	}
	return rows
}
