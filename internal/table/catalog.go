// Package table implements JUST's storage data models (Section IV-D):
// common tables, plugin tables (trajectory), view tables, and the meta
// table (catalog), plus the row codec with the paper's per-field
// compression mechanism.
//
// The paper keeps meta tables in MySQL beside HBase; this reproduction
// keeps them as rows in the store itself, under a table id no table is
// given (see metaPrefix). They are written like any row, so they are
// as durable as the rows they describe, and a second router over the
// same region servers finds the tables and rows the first wrote.
package table

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"time"

	"just/internal/exec"
	"just/internal/index"
	"just/internal/kv"
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
// records. It is immutable once created; what changes with the data
// (time span, statistics) is kept in rows of its own.
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

// Catalog is the meta table: descriptor rows in the store (see
// metaPrefix), and the tables this process has opened from them. A
// descriptor never changes once created, so each is read from the store
// once; only a miss — a table created through another router, or none
// at all — pays a read.
type Catalog struct {
	store kv.Store
	cfg   IndexConfig
	// mu guards tables. Create holds it across its store write, so one
	// process allocates table ids one at a time.
	mu     sync.RWMutex
	tables map[string]*Table // by qualified name
}

// NewCatalog returns the catalog kept in store; its tables open with cfg.
func NewCatalog(store kv.Store, cfg IndexConfig) *Catalog {
	return &Catalog{store: store, cfg: cfg, tables: map[string]*Table{}}
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
	// A descriptor Open would reject must not take the name.
	if _, err := resolve(d, c.store, c.cfg); err != nil {
		return err
	}
	ctx := context.Background()
	c.mu.Lock()
	defer c.mu.Unlock()
	qn := QualifiedName(d.User, d.Name)
	vals, err := c.store.MultiGetCtx(ctx, [][]byte{descKey(qn), nextIDKey})
	if err != nil {
		return err
	}
	if vals[0] != nil {
		return fmt.Errorf("%w: %s", ErrTableExists, qn)
	}
	d.TableID = 1
	if vals[1] != nil {
		d.TableID = binary.BigEndian.Uint32(vals[1])
	}
	if d.CreatedAt.IsZero() {
		d.CreatedAt = time.Now()
	}
	data, err := json.Marshal(d)
	if err != nil {
		return err
	}
	var b kv.WriteBatch
	b.Put(descKey(qn), data)
	b.Put(nextIDKey, binary.BigEndian.AppendUint32(nil, d.TableID+1))
	return c.store.ApplyCtx(ctx, &b)
}

// Open returns the runtime of user's table name, falling back to the
// public namespace. The user's namespace is searched first among the
// opened tables and then in the store, so a table the user owns is
// never shadowed by a public one of the same name; a statement on a
// public table thus pays one store read for the name the user lacks.
func (c *Catalog) Open(user, name string) (*Table, error) {
	qns := []string{QualifiedName(user, name)}
	if user != "" {
		qns = append(qns, name)
	}
	for _, qn := range qns {
		c.mu.RLock()
		t := c.tables[qn]
		c.mu.RUnlock()
		if t != nil {
			return t, nil
		}
		if t, err := c.load(qn); t != nil || err != nil {
			return t, err
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
}

// load opens the table of qualified name qn from its stored descriptor;
// nil when there is none.
func (c *Catalog) load(qn string) (*Table, error) {
	v, err := c.store.MultiGetCtx(context.Background(), [][]byte{descKey(qn)})
	if err != nil || v[0] == nil {
		return nil, err
	}
	d := new(Desc)
	if err := json.Unmarshal(v[0], d); err != nil {
		return nil, fmt.Errorf("table: corrupt descriptor of %s: %w", qn, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.tables[qn]; t != nil {
		return t, nil
	}
	t, err := Open(d, c.store, c.cfg)
	if err != nil {
		return nil, err
	}
	c.tables[qn] = t
	return t, nil
}

// Drop removes a table: its rows, meta rows and descriptor, in one
// batch (see Table.DropData). ctx bounds the purge.
func (c *Catalog) Drop(ctx context.Context, user, name string) error {
	t, err := c.Open(user, name)
	if err != nil {
		return err
	}
	if err := t.DropData(ctx); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.tables, QualifiedName(t.Desc.User, t.Desc.Name))
	c.mu.Unlock()
	return nil
}

// Tables returns the tables this process has opened.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	return out
}

// List returns the names of the user's tables (SHOW TABLES), sorted. It
// reads every descriptor row, so it also lists tables created through
// another router.
func (c *Catalog) List(user string) ([]string, error) {
	var out []string
	var derr error
	err := kv.ScanRange(context.Background(), c.store, index.KeysUnder(descKey("")), func(_, v []byte) bool {
		var d Desc
		if derr = json.Unmarshal(v, &d); derr != nil {
			return false
		}
		if d.User == user {
			out = append(out, d.Name)
		}
		return true
	})
	sort.Strings(out)
	return out, errors.Join(err, derr)
}
