package rpc

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Handler processes one request frame. ctx is scoped to the request:
// it carries the peer's propagated deadline (frames with a deadline
// envelope) and is canceled when the server shuts down. It must send at
// least one frame via w (a terminal OpResp/OpError, or OpScanBatch* +
// OpScanEnd). A returned error tears the connection down
// (protocol-level failure); application failures should instead be sent
// as OpError frames.
type Handler func(ctx context.Context, op byte, payload []byte, w *ResponseWriter) error

// ErrStreamCanceled reports a streamed response abandoned by its
// consumer: the client sent an OpCancel frame (or dropped the
// connection) mid-stream. Handlers receive it from Send and should stop
// producing promptly; the connection is torn down afterwards.
var ErrStreamCanceled = errors.New("rpc: stream canceled by client")

// inFrame is one decoded request frame handed from a connection's
// reader goroutine to its dispatch loop.
type inFrame struct {
	op       byte
	dlMicros uint64
	payload  []byte
}

// ResponseWriter sends response frames for one in-flight request.
type ResponseWriter struct {
	w    *bufio.Writer
	buf  []byte
	sent int
	out  *atomic.Int64

	// interrupt delivers frames that arrive while the request is being
	// served. The protocol is strictly sequential per connection, so the
	// only legal such frame is OpCancel; anything else (or the channel
	// closing — the client disconnected) also abandons the stream.
	interrupt <-chan inFrame
	canceled  bool

	// direct, when set, bypasses the wire: frames are handed to it
	// in-process instead of being encoded (see CallLocal).
	direct func(op byte, payload []byte) error
}

// Send writes one response frame. Flushing happens when the request
// handler returns, except for streamed scans, where each batch frame is
// flushed eagerly so the consumer pipeline overlaps with the scan —
// and, between batches, the writer checks for a client OpCancel frame
// (or disconnect) and returns ErrStreamCanceled so the producer stops
// instead of filling dead buffers.
func (w *ResponseWriter) Send(op byte, payload []byte) error {
	w.sent++
	if w.direct != nil {
		return w.direct(op, payload)
	}
	w.buf = AppendFrame(w.buf[:0], op, payload)
	n, err := w.w.Write(w.buf)
	w.out.Add(int64(n))
	if err != nil {
		if op == OpScanBatch {
			// A mid-stream write failure means the consumer hung up; same
			// signal as an explicit OpCancel.
			w.canceled = true
			return ErrStreamCanceled
		}
		return err
	}
	if op == OpScanBatch {
		if err := w.w.Flush(); err != nil {
			w.canceled = true
			return ErrStreamCanceled
		}
		if w.interrupt != nil {
			select {
			case _, ok := <-w.interrupt:
				// OpCancel, a protocol violation, or a disconnect (!ok):
				// either way the consumer is gone.
				_ = ok
				w.canceled = true
				return ErrStreamCanceled
			default:
			}
		}
	}
	return nil
}

// SendErr sends a terminal OpError frame. The payload is built in a
// fresh buffer: Send reuses w.buf as the frame build buffer, so the
// payload must not alias it.
func (w *ResponseWriter) SendErr(code byte, msg string) error {
	return w.Send(OpError, AppendError(nil, code, msg))
}

// Stats counts a peer's wire traffic.
type Stats struct {
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	Conns    int64 `json:"conns"`
	// Canceled counts streamed responses abandoned mid-flight by the
	// consumer (OpCancel frames and disconnects observed between
	// batches). Server-side only.
	Canceled int64 `json:"canceled,omitempty"`
	// Redials counts transparent retries of requests whose pooled
	// connection turned out to be stale. Client-side only.
	Redials int64 `json:"redials,omitempty"`
}

// Server accepts rpc connections and dispatches request frames to a
// Handler, sequentially per connection.
type Server struct {
	l        net.Listener
	h        Handler
	maxFrame int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	accepted atomic.Int64
	canceled atomic.Int64
}

// ServerOptions tune a Server.
type ServerOptions struct {
	// MaxFrameBytes bounds incoming frame payloads (0 = 16 MiB).
	MaxFrameBytes int
}

// Serve listens on addr and serves h until Close. addr may carry port 0
// to pick a free port; Addr reports the bound address.
func Serve(addr string, h Handler, opts ServerOptions) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeListener(l, h, opts), nil
}

// ServeListener serves h on an existing listener.
func ServeListener(l net.Listener, h Handler, opts ServerOptions) *Server {
	if opts.MaxFrameBytes <= 0 {
		opts.MaxFrameBytes = DefaultMaxFrameBytes
	}
	s := &Server{
		l:        l,
		h:        h,
		maxFrame: opts.MaxFrameBytes,
		conns:    map[net.Conn]struct{}{},
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address ("host:port").
func (s *Server) Addr() string { return s.l.Addr().String() }

// Stats snapshots the server's wire counters.
func (s *Server) Stats() Stats {
	return Stats{
		BytesIn:  s.bytesIn.Load(),
		BytesOut: s.bytesOut.Load(),
		Conns:    s.accepted.Load(),
		Canceled: s.canceled.Load(),
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.l.Accept()
		if err != nil {
			return // listener closed
		}
		s.accepted.Add(1)
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// serveConn dispatches one connection's requests. A dedicated reader
// goroutine decodes frames continuously; the dispatch loop consumes
// them one at a time. Splitting read from dispatch is what makes
// mid-stream OpCancel frames (and disconnects) visible while a
// streaming handler is producing: the reader parks the frame on the
// unbuffered channel and ResponseWriter.Send collects it between
// batches.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(&countingReader{r: c, n: &s.bytesIn}, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	frames := make(chan inFrame)
	readerDone := make(chan struct{})
	defer func() {
		// Unblock the reader (it may be parked on frames <-) and wait for
		// it; Close's wg.Wait must not outrun a goroutine still touching
		// the connection.
		c.Close()
		<-readerDone
	}()
	go func() {
		defer close(readerDone)
		defer close(frames)
		for {
			op, dl, payload, err := ReadFrameDeadline(br, s.maxFrame)
			if err != nil {
				return // clean EOF, torn frame or closed conn
			}
			select {
			case frames <- inFrame{op: op, dlMicros: dl, payload: payload}:
			case <-s.ctx.Done():
				return
			}
		}
	}()
	rw := &ResponseWriter{w: bw, out: &s.bytesOut, interrupt: frames}
	for f := range frames {
		if f.op == OpCancel {
			continue // late cancel: the stream it meant already ended
		}
		ctx, cancel := s.requestCtx(f.dlMicros)
		rw.sent = 0
		rw.canceled = false
		err := s.h(ctx, f.op, f.payload, rw)
		cancel()
		if rw.canceled {
			// The client abandoned the stream: by protocol the connection
			// is not reused afterwards.
			s.canceled.Add(1)
			return
		}
		if err != nil {
			return
		}
		if rw.sent == 0 {
			// A handler that forgot to answer would wedge the client.
			if rw.SendErr(CodeInternal, "handler sent no response") != nil {
				return
			}
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// requestCtx derives the per-request context: the frame's deadline
// envelope bounds it, and server shutdown cancels it.
func (s *Server) requestCtx(dlMicros uint64) (context.Context, context.CancelFunc) {
	if dlMicros == 0 {
		return context.WithCancel(s.ctx)
	}
	return context.WithTimeout(s.ctx, time.Duration(dlMicros)*time.Microsecond)
}

// Close stops accepting, closes every live connection and waits for
// handler goroutines to finish.
func (s *Server) Close() error {
	s.cancel()
	err := s.l.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}
