package exec

import (
	"context"
	"sync/atomic"
)

// ctxShared is the engine-wide execution state every bound Context
// aliases: the global memory budget.
type ctxShared struct {
	memBudget int64 // 0 = unlimited
	memUsed   atomic.Int64
}

// Context owns the memory budget shared by all frames of one engine —
// the analogue of the shared Spark context the paper's service layer
// maintains (Section VII-A). Bind derives per-query views that add
// cancellation and a per-query memory budget on top of the shared
// state.
type Context struct {
	s *ctxShared

	// Per-query lifecycle; both nil on the engine-wide root context.
	ctx   context.Context // cancellation/deadline; nil = never canceled
	query *Query          // per-query memory budget and progress counters
}

// NewContext creates a context. memBudget <= 0 disables memory
// accounting failure.
func NewContext(memBudget int64) *Context {
	return &Context{s: &ctxShared{memBudget: memBudget}}
}

// DefaultContext returns a context with no memory cap.
func DefaultContext() *Context { return NewContext(0) }

// Bind derives a per-query view of the context: same global budget,
// plus cancellation from ctx and (when ctx carries one
// via WithQuery) a per-query memory budget. Frames built under the
// bound context inherit both; operators abort with the typed lifecycle
// errors once ctx is done.
func (c *Context) Bind(ctx context.Context) *Context {
	return &Context{s: c.s, ctx: ctx, query: QueryFromContext(ctx)}
}

// Query returns the per-query lifecycle bound to this context, or nil.
func (c *Context) Query() *Query { return c.query }

// Err reports the typed lifecycle error once the bound query context is
// canceled or past its deadline, else nil.
func (c *Context) Err() error {
	if c.ctx == nil {
		return nil
	}
	return MapCtxErr(c.ctx.Err())
}

// reserve accounts n bytes against the global budget and, when bound,
// the per-query budget; it fails when either is exhausted.
func (c *Context) reserve(n int64) error {
	used := c.s.memUsed.Add(n)
	if c.s.memBudget > 0 && used > c.s.memBudget {
		c.s.memUsed.Add(-n)
		return ErrOutOfMemory
	}
	if err := c.query.Reserve(n); err != nil {
		c.s.memUsed.Add(-n)
		return err
	}
	return nil
}

// release returns n bytes to the budget(s).
func (c *Context) release(n int64) {
	c.s.memUsed.Add(-n)
	c.query.Release(n)
}

// Reserve charges n bytes of off-frame buffer memory (e.g. rows
// accumulated by a scan before materialization) against the budgets.
func (c *Context) Reserve(n int64) error { return c.reserve(n) }

// Release returns bytes taken with Reserve.
func (c *Context) Release(n int64) { c.release(n) }

// MemUsed reports the currently accounted bytes (global).
func (c *Context) MemUsed() int64 { return c.s.memUsed.Load() }

// DataFrame is a schema-ed sequence of column batches: what plan nodes
// exchange and what a statement returns. Batches are immutable once
// appended, so frames share them freely (a filter's output aliases its
// input's vectors under a narrower selection); each frame charges the
// batches it holds to the budgets until Release.
type DataFrame struct {
	ctx     *Context
	schema  *Schema
	batches []*ColumnBatch
	mem     int64 // accounted bytes, released by Release
}

// NewFrame returns an empty frame over schema; Append fills it.
func NewFrame(ctx *Context, schema *Schema) *DataFrame {
	return &DataFrame{ctx: ctx, schema: schema}
}

// NewDataFrame wraps the rows of a row source (BatchOf) into a frame.
func NewDataFrame(ctx *Context, schema *Schema, rows []Row) (*DataFrame, error) {
	d := NewFrame(ctx, schema)
	if err := d.Append(BatchOf(schema, rows)); err != nil {
		return nil, err
	}
	return d, nil
}

// Append adds a batch, charging its footprint to the budgets; on a
// budget or lifecycle error the frame is unchanged. Empty batches are
// dropped.
func (d *DataFrame) Append(b *ColumnBatch) error {
	if err := d.ctx.Err(); err != nil {
		return err
	}
	if b.Len() == 0 {
		return nil
	}
	n := b.MemSize()
	if err := d.ctx.reserve(n); err != nil {
		return err
	}
	d.mem += n
	d.ctx.query.AddRows(int64(b.Len()))
	d.batches = append(d.batches, b)
	return nil
}

// Release returns the frame's memory to the context budget. Frames are
// small-lived; views call this when dropped.
func (d *DataFrame) Release() {
	d.ctx.release(d.mem)
	d.mem = 0
	d.batches = nil
}

// Bound returns a zero-cost alias of the frame bound to ctx: same
// schema and batches, no additional memory reservation (Release on the
// alias is a no-op for the shared batches). It lets a cached view
// frame participate in a new query under that query's cancellation and
// budget instead of the (long-finished) one it was built under.
func (d *DataFrame) Bound(ctx *Context) *DataFrame {
	if d.ctx == ctx {
		return d
	}
	return &DataFrame{ctx: ctx, schema: d.schema, batches: d.batches}
}

// Schema returns the frame's schema.
func (d *DataFrame) Schema() *Schema { return d.schema }

// Batches returns the frame's batches, for operators to read.
func (d *DataFrame) Batches() []*ColumnBatch { return d.batches }

// Count returns the number of rows.
func (d *DataFrame) Count() int {
	n := 0
	for _, b := range d.batches {
		n += b.Len()
	}
	return n
}

// Collect boxes every row — the driver-side materialization of Fig. 2,
// and the one place a query result becomes rows. The rows are carved
// from one backing array.
func (d *DataFrame) Collect() []Row {
	w := d.schema.Len()
	out := make([]Row, 0, d.Count())
	backing := make(Row, cap(out)*w)
	for _, b := range d.batches {
		for i, n := 0, b.Len(); i < n; i++ {
			row := backing[:w:w]
			backing = backing[w:]
			b.readRow(b.Live(i), row)
			out = append(out, row)
		}
	}
	return out
}
