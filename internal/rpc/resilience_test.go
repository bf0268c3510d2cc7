package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"testing"
	"time"
)

func TestFrameDeadlineRoundTrip(t *testing.T) {
	payload := []byte("deadline-bound request")
	frame := AppendFrameDeadline(nil, OpScan, payload, 1500)
	op, dl, got, err := ReadFrameDeadline(bufio.NewReader(bytes.NewReader(frame)), 0)
	if err != nil {
		t.Fatalf("ReadFrameDeadline: %v", err)
	}
	if op != OpScan || dl != 1500 || !bytes.Equal(got, payload) {
		t.Fatalf("got op=%#02x dl=%d payload=%q", op, dl, got)
	}
	// ReadFrame (the legacy entry point) still decodes the payload,
	// dropping the envelope.
	op, got, err = ReadFrame(bufio.NewReader(bytes.NewReader(frame)), 0)
	if err != nil || op != OpScan || !bytes.Equal(got, payload) {
		t.Fatalf("ReadFrame on deadline frame: op=%#02x payload=%q err=%v", op, got, err)
	}
}

func TestFrameZeroDeadlineIsLegacyFrame(t *testing.T) {
	payload := []byte("plain")
	legacy := AppendFrame(nil, OpGet, payload)
	viaZero := AppendFrameDeadline(nil, OpGet, payload, 0)
	if !bytes.Equal(legacy, viaZero) {
		t.Fatalf("deadline=0 frame differs from legacy encoding:\n%x\n%x", legacy, viaZero)
	}
	op, dl, got, err := ReadFrameDeadline(bufio.NewReader(bytes.NewReader(legacy)), 0)
	if err != nil || op != OpGet || dl != 0 || !bytes.Equal(got, payload) {
		t.Fatalf("legacy decode: op=%#02x dl=%d payload=%q err=%v", op, dl, got, err)
	}
}

func TestFrameZeroDeadlineEnvelopeRejected(t *testing.T) {
	// Handcraft a frame that sets the deadline flag but encodes budget 0:
	// the envelope promises a deadline and delivers none, so it is
	// malformed, not "no deadline".
	hdr := []byte{OpGet, flagDeadline, 0x00} // op, flags, uvarint(0)
	frame := append([]byte(nil), hdr...)
	frame = binary.AppendUvarint(frame, 0) // empty payload
	crc := crc32.Update(0, castagnoli, hdr)
	frame = binary.LittleEndian.AppendUint32(frame, crc)
	_, _, _, err := ReadFrameDeadline(bufio.NewReader(bytes.NewReader(frame)), 0)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

// TestDeadlineEnvelopePropagates checks the end-to-end contract: a
// client context deadline surfaces as the server-side request context's
// deadline, and a deadline-free context leaves the request unbounded.
func TestDeadlineEnvelopePropagates(t *testing.T) {
	type seen struct {
		hasDeadline bool
		remaining   time.Duration
	}
	ch := make(chan seen, 1)
	h := func(ctx context.Context, op byte, payload []byte, w *ResponseWriter) error {
		d, ok := ctx.Deadline()
		s := seen{hasDeadline: ok}
		if ok {
			s.remaining = time.Until(d)
		}
		ch <- s
		return w.Send(OpResp, nil)
	}
	srv, err := Serve("127.0.0.1:0", h, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(ClientOptions{})
	defer func() { cl.Close(); srv.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if _, err := cl.Do(ctx, srv.Addr(), OpPing, nil); err != nil {
		t.Fatalf("do with deadline: %v", err)
	}
	cancel()
	s := <-ch
	if !s.hasDeadline {
		t.Fatal("server request context has no deadline; envelope not propagated")
	}
	if s.remaining <= 0 || s.remaining > 5*time.Second {
		t.Fatalf("server-side remaining budget %v, want (0s, 5s]", s.remaining)
	}

	if _, err := cl.Do(context.Background(), srv.Addr(), OpPing, nil); err != nil {
		t.Fatalf("do without deadline: %v", err)
	}
	if s := <-ch; s.hasDeadline {
		t.Fatal("deadline-free request produced a server-side deadline")
	}
}

// TestClientRedialOnStalePooledConn runs against a server that closes
// every connection after one exchange: the second request draws the
// stale pooled conn, fails before any response byte, and must retry
// once on a fresh dial instead of surfacing a transport error.
func TestClientRedialOnStalePooledConn(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				if _, _, _, err := ReadFrameDeadline(br, 0); err != nil {
					return
				}
				c.Write(AppendFrame(nil, OpResp, []byte("one")))
				// Connection closes here: the client's pooled copy is stale.
			}(c)
		}
	}()

	cl := NewClient(ClientOptions{})
	defer cl.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		resp, err := cl.Do(ctx, l.Addr().String(), OpPing, nil)
		if err != nil || string(resp) != "one" {
			t.Fatalf("request %d: %q err %v", i, resp, err)
		}
	}
	st := cl.Stats()
	if st.Redials != 2 {
		t.Fatalf("redials = %d, want 2 (one per reuse of a server-closed conn)", st.Redials)
	}
}

func TestClientIdleConnExpiry(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(ClientOptions{IdleConnTimeout: 10 * time.Millisecond})
	defer func() { cl.Close(); srv.Close() }()
	ctx := context.Background()
	if err := cl.Ping(ctx, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := cl.Ping(ctx, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.Conns != 2 {
		t.Fatalf("dials = %d, want 2 (expired idle conn discarded, fresh dial)", st.Conns)
	}
	if st.Redials != 0 {
		t.Fatalf("redials = %d, want 0 (expiry is not a failure)", st.Redials)
	}
}

// TestStreamCancelFrameStopsServer abandons a streaming scan client-side
// and asserts the server observes the cancellation instead of producing
// every remaining batch into a dead connection.
func TestStreamCancelFrameStopsServer(t *testing.T) {
	const batches = 500
	produced := make(chan int, 1)
	h := func(ctx context.Context, op byte, payload []byte, w *ResponseWriter) error {
		sent := 0
		defer func() { produced <- sent }()
		big := bytes.Repeat([]byte("x"), 32<<10)
		for i := 0; i < batches; i++ {
			if err := w.Send(OpScanBatch, big); err != nil {
				return err
			}
			sent++
		}
		return w.Send(OpScanEnd, nil)
	}
	srv, err := Serve("127.0.0.1:0", h, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(ClientOptions{})
	defer func() { cl.Close(); srv.Close() }()

	err = cl.Stream(context.Background(), srv.Addr(), OpScan, nil, func(op byte, p []byte) (bool, error) {
		return false, nil // abandon after the first batch
	})
	if err != nil {
		t.Fatalf("abandoned stream: %v", err)
	}
	sent := <-produced
	if sent >= batches {
		t.Fatalf("server produced all %d batches; cancellation never reached it", sent)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server canceled-stream counter still 0 (produced %d batches)", sent)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
