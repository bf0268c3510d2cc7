package rpc

import (
	"bufio"
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Client is a pooled rpc client: one instance serves every peer
// address, keeping a small per-host pool of idle connections. Requests
// on one connection are sequential; concurrent callers draw distinct
// connections.
type Client struct {
	opts ClientOptions

	mu     sync.Mutex
	idle   map[string][]*cconn
	closed bool

	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	dials    atomic.Int64
	redials  atomic.Int64
}

// ClientOptions tune a Client.
type ClientOptions struct {
	// DialTimeout bounds connection establishment (0 = 2s).
	DialTimeout time.Duration
	// OpTimeout bounds a single request/response exchange when the
	// caller's context carries no deadline (0 = 30s). Streams renew it
	// per frame.
	OpTimeout time.Duration
	// MaxFrameBytes bounds incoming frames (0 = 16 MiB).
	MaxFrameBytes int
	// MaxIdlePerHost bounds pooled idle connections per peer (0 = 4).
	MaxIdlePerHost int
	// IdleConnTimeout discards pooled connections idle for longer
	// (0 = 60s). A long-idle conn has likely been closed by the peer or
	// a middlebox; reusing it manufactures a spurious transport error.
	IdleConnTimeout time.Duration
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 30 * time.Second
	}
	if o.MaxFrameBytes <= 0 {
		o.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if o.MaxIdlePerHost <= 0 {
		// Enough since a scan sends one OpScan per region run: order_st_tcp
		// dials 5 times per 10 s run, against 57 000–104 000 at one per range.
		o.MaxIdlePerHost = 4
	}
	if o.IdleConnTimeout <= 0 {
		o.IdleConnTimeout = 60 * time.Second
	}
	return o
}

// NewClient creates a client.
func NewClient(opts ClientOptions) *Client {
	return &Client{opts: opts.withDefaults(), idle: map[string][]*cconn{}}
}

// Stats snapshots the client's wire counters.
func (c *Client) Stats() Stats {
	return Stats{
		BytesIn:  c.bytesIn.Load(),
		BytesOut: c.bytesOut.Load(),
		Conns:    c.dials.Load(),
		Redials:  c.redials.Load(),
	}
}

// cconn is one pooled connection.
type cconn struct {
	nc     net.Conn
	br     *bufio.Reader
	buf    []byte        // frame build buffer
	rn     int64         // total response bytes read off the socket
	in     *atomic.Int64 // the client's BytesIn
	idleAt time.Time
	pooled bool // drawn from the idle pool rather than freshly dialed
}

// Read counts response bytes as they leave the socket: into the
// client's BytesIn, which so counts wire bytes as the server's BytesOut
// does, and into rn, so a failed exchange can tell "the peer never
// answered" (safe to blame the pooled conn and redial) from "the
// response broke mid-flight".
func (cc *cconn) Read(p []byte) (int, error) {
	n, err := cc.nc.Read(p)
	cc.rn += int64(n)
	cc.in.Add(int64(n))
	return n, err
}

func (c *Client) getConn(ctx context.Context, addr string) (*cconn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, &TransportError{Addr: addr, Err: net.ErrClosed}
	}
	for pool := c.idle[addr]; len(pool) > 0; pool = c.idle[addr] {
		cc := pool[len(pool)-1]
		c.idle[addr] = pool[:len(pool)-1]
		if time.Since(cc.idleAt) > c.opts.IdleConnTimeout {
			cc.nc.Close() // expired: almost certainly dead on the far side
			continue
		}
		c.mu.Unlock()
		cc.pooled = true
		return cc, nil
	}
	c.mu.Unlock()
	return c.dial(ctx, addr)
}

func (c *Client) dial(ctx context.Context, addr string) (*cconn, error) {
	d := net.Dialer{Timeout: c.opts.DialTimeout}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, &TransportError{Addr: addr, Err: err}
	}
	c.dials.Add(1)
	cc := &cconn{nc: nc, in: &c.bytesIn}
	cc.br = bufio.NewReaderSize(cc, 64<<10)
	return cc, nil
}

func (c *Client) putConn(addr string, cc *cconn) {
	c.mu.Lock()
	if !c.closed && len(c.idle[addr]) < c.opts.MaxIdlePerHost {
		cc.idleAt = time.Now()
		c.idle[addr] = append(c.idle[addr], cc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cc.nc.Close()
}

// deadlineFor derives the per-exchange IO deadline from ctx.
func (c *Client) deadlineFor(ctx context.Context) time.Time {
	if d, ok := ctx.Deadline(); ok {
		return d
	}
	return time.Now().Add(c.opts.OpTimeout)
}

// deadlineMicros is the caller's remaining budget for the deadline
// envelope, or 0 when ctx carries no deadline. A context already at or
// past its deadline reports budget 1µs — the frame still carries the
// envelope and the server aborts immediately.
func deadlineMicros(ctx context.Context) uint64 {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	rem := time.Until(d) / time.Microsecond
	if rem < 1 {
		return 1
	}
	return uint64(rem)
}

// Do sends one request and returns the single terminal response
// payload. A RemoteError is returned for OpError responses; any
// connection-level failure comes back as a *TransportError (the request
// may or may not have executed).
func (c *Client) Do(ctx context.Context, addr string, op byte, payload []byte) ([]byte, error) {
	var resp []byte
	err := c.Stream(ctx, addr, op, payload, func(rop byte, p []byte) (bool, error) {
		resp = append([]byte(nil), p...)
		return false, nil
	})
	return resp, err
}

// Stream sends one request and delivers every response frame to
// onFrame until a terminal frame arrives (OpResp, OpScanEnd) or
// onFrame returns false/an error. OpError frames terminate the stream
// with the decoded RemoteError; onFrame never sees them. The payload
// passed to onFrame is only valid during the call.
//
// When the request rode a pooled connection and failed before any
// response byte arrived, the failure is almost always the pool's fault
// — the peer closed the idle conn under us — not the peer's death, so
// Stream redials once, transparently, and retries on the fresh
// connection before reporting a TransportError.
func (c *Client) Stream(ctx context.Context, addr string, op byte, payload []byte, onFrame func(op byte, payload []byte) (bool, error)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cc, err := c.getConn(ctx, addr)
	if err != nil {
		return err
	}
	pooled := cc.pooled
	rn0 := cc.rn
	err = c.exchange(ctx, addr, cc, op, payload, onFrame)
	if err == nil || !pooled || cc.rn != rn0 || ctx.Err() != nil {
		return err
	}
	if _, ok := err.(*TransportError); !ok {
		return err
	}
	// Stale pooled conn: retry exactly once on a guaranteed-fresh dial.
	cc, derr := c.dial(ctx, addr)
	if derr != nil {
		return err // report the original failure; the redial adds nothing
	}
	c.redials.Add(1)
	return c.exchange(ctx, addr, cc, op, payload, onFrame)
}

// exchange runs one request/response conversation on cc, returning it
// to the pool if the wire stayed clean.
func (c *Client) exchange(ctx context.Context, addr string, cc *cconn, op byte, payload []byte, onFrame func(op byte, payload []byte) (bool, error)) error {
	// Cancellation forces the connection's deadline into the past, so a
	// blocked read/write fails promptly; the connection is then discarded.
	stop := context.AfterFunc(ctx, func() { cc.nc.SetDeadline(time.Unix(1, 0)) })
	reusable := false
	defer func() {
		stop()
		if reusable && ctx.Err() == nil {
			cc.nc.SetDeadline(time.Time{})
			c.putConn(addr, cc)
		} else {
			cc.nc.Close()
		}
	}()

	cc.nc.SetDeadline(c.deadlineFor(ctx))
	cc.buf = AppendFrameDeadline(cc.buf[:0], op, payload, deadlineMicros(ctx))
	n, err := cc.nc.Write(cc.buf)
	c.bytesOut.Add(int64(n))
	if err != nil {
		return c.wrapIO(ctx, addr, err)
	}
	for {
		rop, p, err := ReadFrame(cc.br, c.opts.MaxFrameBytes)
		if err != nil {
			return c.wrapIO(ctx, addr, err)
		}
		switch rop {
		case OpError:
			// The exchange completed cleanly; the connection is reusable.
			reusable = true
			return DecodeError(p)
		case OpResp, OpScanEnd:
			reusable = true
			if _, err := onFrame(rop, p); err != nil {
				return err
			}
			return nil
		default:
			cc.nc.SetDeadline(c.deadlineFor(ctx))
			more, err := onFrame(rop, p)
			if err != nil {
				return err
			}
			if !more {
				// Abandon the stream: tell the server so it stops producing
				// and frees the scan promptly. Best-effort — the connection
				// is torn down either way and never reused.
				cc.nc.SetDeadline(time.Now().Add(time.Second))
				f, werr := AppendFrame(cc.buf[:0], OpCancel, nil), error(nil)
				if _, werr = cc.nc.Write(f); werr == nil {
					c.bytesOut.Add(int64(len(f)))
				}
				return nil
			}
		}
	}
}

// wrapIO classifies an IO failure: caller cancellation surfaces as the
// context's error, everything else as a transport error.
func (c *Client) wrapIO(ctx context.Context, addr string, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return &TransportError{Addr: addr, Err: err}
}

// Ping checks liveness of a peer.
func (c *Client) Ping(ctx context.Context, addr string) error {
	_, err := c.Do(ctx, addr, OpPing, nil)
	return err
}

// Close drops every idle connection. In-flight exchanges finish on
// their own connections and are discarded afterwards.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, pool := range c.idle {
		for _, cc := range pool {
			cc.nc.Close()
		}
	}
	c.idle = nil
}
