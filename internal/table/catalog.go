// Package table implements JUST's storage data models (Section IV-D):
// common tables, plugin tables (trajectory), view tables, and the meta
// table (catalog), plus the row codec with the paper's per-field
// compression mechanism.
//
// The paper keeps meta tables in MySQL; this reproduction embeds an
// equivalent transactional catalog persisted by atomic file renames —
// small, strongly consistent, and fast for SHOW/DESC, which is all the
// paper requires of it.
package table

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"just/internal/exec"
)

// Errors returned by the catalog.
var (
	// ErrTableExists reports a duplicate CREATE TABLE.
	ErrTableExists = errors.New("table: already exists")
	// ErrNoTable reports a missing table.
	ErrNoTable = errors.New("table: not found")
	// ErrBadSchema reports an invalid schema definition.
	ErrBadSchema = errors.New("table: invalid schema")
)

// Kind distinguishes the storage data models.
type Kind string

// Table kinds (views live in memory and are tracked separately).
const (
	KindCommon Kind = "common"
	KindPlugin Kind = "plugin"
)

// Column is one column definition including JustQL modifiers
// (`fid integer:primary key`, `geom point:srid=4326`,
// `gpsList st_series:compress=gzip`).
type Column struct {
	Name string        `json:"name"`
	Type exec.DataType `json:"type"`
	// Subtype keeps the declared geometry subtype ("point", "linestring",
	// "polygon", "multipoint"); it decides Z2/Z2T vs XZ2/XZ2T defaults.
	Subtype    string `json:"subtype,omitempty"`
	PrimaryKey bool   `json:"primary_key,omitempty"`
	SRID       int    `json:"srid,omitempty"`
	Compress   string `json:"compress,omitempty"` // "", "gzip", "zip", "lz4"
}

// IndexDesc names one index built for a table.
type IndexDesc struct {
	Strategy string `json:"strategy"` // z2, z2t, xz2, xz2t, z3, xz3, attr
	// PeriodMS is the time-period length for temporal strategies.
	PeriodMS int64 `json:"period_ms,omitempty"`
	// ID is the key-space discriminator within the table.
	ID uint8 `json:"id"`
}

// Desc is the catalog entry for a table — what the paper's meta table
// records.
type Desc struct {
	Name    string      `json:"name"`
	User    string      `json:"user"` // namespace owner; "" = public
	Kind    Kind        `json:"kind"`
	Plugin  string      `json:"plugin,omitempty"` // plugin type, e.g. "trajectory"
	Columns []Column    `json:"columns"`
	Indexes []IndexDesc `json:"indexes"`

	// Field roles inferred at creation time.
	FidColumn  string `json:"fid_column"`
	GeomColumn string `json:"geom_column,omitempty"`
	TimeColumn string `json:"time_column,omitempty"`
	// EndTimeColumn holds the record end time for extended records.
	EndTimeColumn string `json:"end_time_column,omitempty"`

	// TableID prefixes every key of this table in the shared cluster.
	TableID uint32 `json:"table_id"`

	CreatedAt time.Time `json:"created_at"`

	// Stats maintained on ingest, used by DESC and the optimizer.
	RecordCount int64 `json:"record_count"`
	MinTimeMS   int64 `json:"min_time_ms"`
	MaxTimeMS   int64 `json:"max_time_ms"`

	// Stats is the planner statistics snapshot from the last explicit
	// collection (Table.CollectStats); nil until then. Unlike the
	// ingest counters above it is refreshed only on demand, so it can
	// go stale — the optimizer treats it as advisory.
	Stats *TableStats `json:"stats,omitempty"`
}

// Schema converts the column list to an exec schema.
func (d *Desc) Schema() *exec.Schema {
	fields := make([]exec.Field, len(d.Columns))
	for i, c := range d.Columns {
		fields[i] = exec.Field{Name: c.Name, Type: c.Type}
	}
	return exec.NewSchema(fields...)
}

// Column returns the named column definition.
func (d *Desc) Column(name string) (Column, bool) {
	for _, c := range d.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return Column{}, false
}

// QualifiedName returns the namespaced name used as the unique catalog
// key: "<user>.<name>" (the per-user prefix of Section VII-A).
func QualifiedName(user, name string) string {
	if user == "" {
		return name
	}
	return user + "." + name
}

var nameRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// columnRE admits every identifier the JustQL lexer reads: Unicode
// letters, decimal digits and '_'. Column names never reach keys or
// paths, so unlike table names they need not be ASCII.
var columnRE = regexp.MustCompile(`^[\p{L}_][\p{L}\p{Nd}_]*$`)

// Catalog is the meta table: a mutex-guarded map persisted atomically.
type Catalog struct {
	mu     sync.RWMutex
	path   string // "" = memory only
	tables map[string]*Desc
	nextID uint32
}

type catalogFile struct {
	Tables map[string]*Desc `json:"tables"`
	NextID uint32           `json:"next_id"`
}

// OpenCatalog loads (or initializes) the catalog at path; an empty path
// keeps it in memory.
func OpenCatalog(path string) (*Catalog, error) {
	c := &Catalog{path: path, tables: map[string]*Desc{}, nextID: 1}
	if path == "" {
		return c, nil
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, err
	}
	var f catalogFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("table: corrupt catalog: %w", err)
	}
	if f.Tables != nil {
		c.tables = f.Tables
	}
	if f.NextID > 0 {
		c.nextID = f.NextID
	}
	return c, nil
}

func (c *Catalog) persistLocked() error {
	if c.path == "" {
		return nil
	}
	data, err := json.MarshalIndent(catalogFile{Tables: c.tables, NextID: c.nextID}, "", " ")
	if err != nil {
		return err
	}
	tmp := c.path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(c.path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.path)
}

// Create registers a table; the Desc's TableID is assigned here.
func (c *Catalog) Create(d *Desc) error {
	if !nameRE.MatchString(d.Name) {
		return fmt.Errorf("%w: bad table name %q", ErrBadSchema, d.Name)
	}
	if len(d.Columns) == 0 {
		return fmt.Errorf("%w: no columns", ErrBadSchema)
	}
	seen := map[string]bool{}
	for _, col := range d.Columns {
		if !columnRE.MatchString(col.Name) {
			return fmt.Errorf("%w: bad column name %q", ErrBadSchema, col.Name)
		}
		if seen[col.Name] {
			return fmt.Errorf("%w: duplicate column %q", ErrBadSchema, col.Name)
		}
		seen[col.Name] = true
		switch col.Compress {
		case "", "gzip", "zip", "lz4":
		default:
			return fmt.Errorf("%w: column %q: unknown compression %q (want gzip, zip or lz4)", ErrBadSchema, col.Name, col.Compress)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	qn := QualifiedName(d.User, d.Name)
	if _, ok := c.tables[qn]; ok {
		return fmt.Errorf("%w: %s", ErrTableExists, qn)
	}
	d.TableID = c.nextID
	c.nextID++
	if d.CreatedAt.IsZero() {
		d.CreatedAt = time.Now()
	}
	c.tables[qn] = d
	return c.persistLocked()
}

// Get returns the descriptor for user's table name.
func (c *Catalog) Get(user, name string) (*Desc, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if d, ok := c.tables[QualifiedName(user, name)]; ok {
		return d, nil
	}
	// Fall back to the public namespace.
	if user != "" {
		if d, ok := c.tables[name]; ok {
			return d, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
}

// Drop removes the table entry.
func (c *Catalog) Drop(user, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	qn := QualifiedName(user, name)
	if _, ok := c.tables[qn]; !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	delete(c.tables, qn)
	return c.persistLocked()
}

// List returns the names of the user's tables (SHOW TABLES), sorted.
func (c *Catalog) List(user string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for _, d := range c.tables {
		if d.User == user {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}

// SetStats persists a planner statistics snapshot for the table.
func (c *Catalog) SetStats(user, name string, st *TableStats) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.tables[QualifiedName(user, name)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	d.Stats = st
	return c.persistLocked()
}

// RecordCount reads the table's ingest record count under the catalog
// lock (UpdateStats writes it); 0 when the table is unknown.
func (c *Catalog) RecordCount(user, name string) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if d, ok := c.tables[QualifiedName(user, name)]; ok {
		return d.RecordCount
	}
	return 0
}

// UpdateStats folds ingest statistics into the descriptor.
func (c *Catalog) UpdateStats(user, name string, added int64, minT, maxT int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.tables[QualifiedName(user, name)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	if d.RecordCount == 0 || minT < d.MinTimeMS {
		d.MinTimeMS = minT
	}
	if d.RecordCount == 0 || maxT > d.MaxTimeMS {
		d.MaxTimeMS = maxT
	}
	d.RecordCount += added
	return c.persistLocked()
}
