package sql

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"just/internal/exec"
)

// loadCSV implements `LOAD csv:<path> TO geomesa:<table> CONFIG {...}
// [FILTER '...']`. The first CSV record is the header; CONFIG maps table
// columns to expressions over header names (with the preset transform
// functions such as lng_lat_to_point and long_to_date_ms).
func (s *Session) loadCSV(st *LoadStmt) (*Result, error) {
	f, err := os.Open(st.Src)
	if err != nil {
		return nil, fmt.Errorf("sql: LOAD csv: %w", err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("sql: LOAD csv: empty file: %w", err)
	}
	fields := make([]exec.Field, len(header))
	for i, h := range header {
		fields[i] = exec.Field{Name: h, Type: exec.TypeString}
	}
	srcSchema := exec.NewSchema(fields...)

	dst, err := s.engine.OpenTable(s.user, st.Dst)
	if err != nil {
		return nil, err
	}
	cfg, err := compileLoadConfig(st, srcSchema)
	if err != nil {
		return nil, err
	}

	var rows []exec.Row
	for {
		record, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("sql: LOAD csv: %w", err)
		}
		if cfg.limit > 0 && len(rows) >= cfg.limit {
			break
		}
		src := make(exec.Row, len(header))
		for i := range header {
			if i < len(record) {
				src[i] = parseCSVValue(record[i])
			}
		}
		row, err := cfg.apply(dst.Desc.Columns, src)
		if err != nil {
			return nil, err
		}
		if row == nil {
			continue
		}
		rows = append(rows, row)
	}
	if err := s.engine.BulkInsert(dst.Desc.User, dst.Desc.Name, rows); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("loaded %d rows from %s into %s", len(rows), st.Src, st.Dst)}, nil
}

// parseCSVValue types raw CSV cells: integers, floats, then strings.
func parseCSVValue(s string) any {
	if s == "" {
		return nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}
