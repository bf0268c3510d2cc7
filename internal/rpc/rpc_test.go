package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("hello"),
		bytes.Repeat([]byte("abcdefgh"), 4096),
		make([]byte, 100_000),
	}
	for i, p := range payloads {
		frame := AppendFrame(nil, OpPutBatch, p)
		if want := 2 + len(binary.AppendUvarint(nil, uint64(len(p)))) + len(p) + 4; len(frame) != want {
			t.Fatalf("payload %d: frame is %d bytes, want %d: the payload travels as is", i, len(frame), want)
		}
		op, got, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), 0)
		if err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		if op != OpPutBatch {
			t.Fatalf("op = %#02x", op)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("payload %d: round trip mismatch (%d vs %d bytes)", i, len(got), len(p))
		}
	}
}

// flagBit0Frame is a frame with a valid checksum whose flags byte sets
// bit 0, which once marked an lz4-framed payload.
func flagBit0Frame(flags byte) []byte {
	frame := []byte{OpScanBatch, flags | 1}
	if flags&flagDeadline != 0 {
		frame = binary.AppendUvarint(frame, 1500)
	}
	hdr := len(frame)
	payload := []byte("no longer a compressed payload")
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	crc := crc32.Update(0, castagnoli, frame[:hdr])
	crc = crc32.Update(crc, castagnoli, payload)
	return binary.LittleEndian.AppendUint32(frame, crc)
}

// TestFrameFlagBit0Rejected: frames travel uncompressed, so flag bit 0
// is an unknown flag like any other, alone or beside a deadline.
func TestFrameFlagBit0Rejected(t *testing.T) {
	for _, flags := range []byte{0, flagDeadline} {
		_, _, _, err := ReadFrameDeadline(bufio.NewReader(bytes.NewReader(flagBit0Frame(flags))), 0)
		if !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "unknown flags") {
			t.Fatalf("flags %#02x: err = %v, want ErrBadFrame for unknown flags", flags|1, err)
		}
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	frame := AppendFrame(nil, OpShip, []byte("the payload under test"))
	for i := 0; i < len(frame); i++ {
		dam := append([]byte(nil), frame...)
		dam[i] ^= 0x40
		_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(dam)), 0)
		if err == nil {
			// A flipped bit inside the varint length may still parse if it
			// yields the same length; everything else must fail.
			t.Fatalf("bit flip at %d: undetected", i)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	frame := AppendFrame(nil, OpScan, make([]byte, 4096))
	_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), 128)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	frame := AppendFrame(nil, OpGet, []byte("truncate me please"))
	for n := 1; n < len(frame); n++ {
		_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame[:n])), 0)
		if err == nil {
			t.Fatalf("truncated at %d: no error", n)
		}
		if err == io.EOF {
			t.Fatalf("truncated at %d: clean EOF, want unexpected EOF", n)
		}
	}
}

func TestMessageRoundTrips(t *testing.T) {
	pb := PutBatchReq{Region: 7, Epoch: 3, Payload: []byte("envelope")}
	var pb2 PutBatchReq
	if err := pb2.Decode(pb.Append(nil)); err != nil || pb2.Region != 7 || pb2.Epoch != 3 || string(pb2.Payload) != "envelope" {
		t.Fatalf("putbatch: %+v err %v", pb2, err)
	}

	mg := MultiGetReq{Region: 1, Epoch: 9, Keys: [][]byte{[]byte("a"), {}, []byte("ccc")}}
	var mg2 MultiGetReq
	if err := mg2.Decode(mg.Append(nil)); err != nil || len(mg2.Keys) != 3 || string(mg2.Keys[2]) != "ccc" {
		t.Fatalf("multiget: %+v err %v", mg2, err)
	}

	vr := ValuesResp{Vals: [][]byte{[]byte("x"), nil, {}}}
	var vr2 ValuesResp
	if err := vr2.Decode(vr.Append(nil)); err != nil {
		t.Fatalf("values: %v", err)
	}
	if vr2.Vals[1] != nil {
		t.Fatalf("nil value not preserved: %v", vr2.Vals)
	}
	if vr2.Vals[2] == nil || len(vr2.Vals[2]) != 0 {
		t.Fatalf("empty value not preserved: %#v", vr2.Vals[2])
	}

	sr := ScanReq{Region: 4, Epoch: 2, Start: nil, End: []byte("zz"), Zoned: true, ZMin: -5, ZMax: 1 << 40}
	var sr2 ScanReq
	if err := sr2.Decode(sr.Append(nil)); err != nil || sr2.Start != nil || string(sr2.End) != "zz" || !sr2.Zoned || sr2.ZMin != -5 || sr2.ZMax != 1<<40 {
		t.Fatalf("scan: %+v err %v", sr2, err)
	}

	sb := ScanBatch{Keys: [][]byte{[]byte("k1"), []byte("k2")}, Vals: [][]byte{[]byte("v1"), []byte("v2")}}
	var sb2 ScanBatch
	if err := sb2.Decode(sb.Append(nil)); err != nil || len(sb2.Keys) != 2 || string(sb2.Vals[1]) != "v2" {
		t.Fatalf("scanbatch: %+v err %v", sb2, err)
	}

	sh := ShipReq{Region: 11, Epoch: 1, Seq: 42, Payload: []byte("batch")}
	var sh2 ShipReq
	if err := sh2.Decode(sh.Append(nil)); err != nil || sh2.Seq != 42 {
		t.Fatalf("ship: %+v err %v", sh2, err)
	}
}

// TestRouterScanRunReqOneRangeGolden pins a one-range ScanReq to the
// bytes it encoded to before requests could carry further ranges: peers
// that never send a run see the same wire format.
func TestRouterScanRunReqOneRangeGolden(t *testing.T) {
	for _, c := range []struct {
		req  ScanReq
		want string
	}{
		{ScanReq{Region: 4, Epoch: 2, End: []byte("zz"), Zoned: true, ZMin: -5, ZMax: 1 << 40}, "040200037a7a0109808080808040"},
		{ScanReq{Region: 300, Epoch: 7, Start: []byte{}}, "ac0207010000"},
	} {
		if got := hex.EncodeToString(c.req.Append(nil)); got != c.want {
			t.Errorf("%+v encodes to %s, want %s", c.req, got, c.want)
		}
	}
}

func TestRouterScanRunReqRoundTrip(t *testing.T) {
	for _, zoned := range []bool{false, true} {
		sr := ScanReq{
			Region: 9, Epoch: 3, Start: []byte("a"), End: []byte("b"),
			More: []Range{{Start: []byte("c"), End: []byte("d")}, {Start: []byte("e")}},
		}
		if zoned {
			sr.Zoned, sr.ZMin, sr.ZMax = true, 1, 2
		}
		var sr2 ScanReq
		if err := sr2.Decode(sr.Append(nil)); err != nil {
			t.Fatalf("zoned=%v: %v", zoned, err)
		}
		if !reflect.DeepEqual(sr, sr2) {
			t.Fatalf("zoned=%v: round trip\n got %+v\nwant %+v", zoned, sr2, sr)
		}
		// A decoded request forgets the ranges of the one decoded before.
		one := ScanReq{Region: 9, Epoch: 3}
		if err := sr2.Decode(one.Append(nil)); err != nil || sr2.More != nil {
			t.Fatalf("zoned=%v: reused request keeps More %v (err %v)", zoned, sr2.More, err)
		}
	}
}

func TestRouterScanRunReqRejectsBadCount(t *testing.T) {
	sr := ScanReq{Region: 1, Epoch: 1, More: []Range{{Start: []byte("k1"), End: []byte("k2")}, {Start: []byte("k3"), End: []byte("k4")}}}
	full := sr.Append(nil)
	head := len((&ScanReq{Region: 1, Epoch: 1}).Append(nil))
	for cut := head + 1; cut < len(full); cut++ {
		var got ScanReq
		if err := got.Decode(full[:cut]); err == nil {
			t.Fatalf("truncated to %d of %d bytes: decoded %+v", cut, len(full), got)
		}
	}
	// A count far beyond what the remaining bytes can hold is refused
	// before anything is allocated for it.
	huge := binary.AppendUvarint(append([]byte(nil), full[:head]...), 1<<40)
	huge = append(huge, 0, 0, 0, 0)
	var got ScanReq
	if err := got.Decode(huge); err == nil {
		t.Fatalf("oversized count decoded: %d ranges", len(got.More))
	}
}

func TestAdminMessageRoundTrip(t *testing.T) {
	m := RegionMapResp{Node: "127.0.0.1:9", Regions: []RegionInfo{
		{ID: 1, Epoch: 2, End: []byte("m"), Role: RolePrimary, Replicas: []string{"a", "b"}, Bytes: 99},
		{ID: 2, Epoch: 2, Start: []byte("m"), Role: RoleReplica},
	}}
	var m2 RegionMapResp
	if err := UnmarshalAdmin(MarshalAdmin(&m), &m2); err != nil {
		t.Fatal(err)
	}
	if len(m2.Regions) != 2 || m2.Regions[0].Bytes != 99 || string(m2.Regions[1].Start) != "m" {
		t.Fatalf("round trip: %+v", m2)
	}
	if m2.Regions[0].Start != nil || m2.Regions[1].End != nil {
		t.Fatalf("nil bounds not preserved: %+v", m2)
	}
}

// echoHandler answers OpPing, echoes OpPutBatch payloads, streams three
// scan batches for OpScan, and reports a stale region for OpGet.
func echoHandler(ctx context.Context, op byte, payload []byte, w *ResponseWriter) error {
	switch op {
	case OpPing:
		return w.Send(OpResp, nil)
	case OpPutBatch:
		return w.Send(OpResp, payload)
	case OpGet:
		return w.SendErr(CodeStaleRegion, "moved")
	case OpScan:
		for i := 0; i < 3; i++ {
			if err := w.Send(OpScanBatch, []byte{byte('0' + i)}); err != nil {
				return err
			}
		}
		return w.Send(OpScanEnd, nil)
	case OpStats:
		return nil // deliberately forget to answer
	default:
		return w.SendErr(CodeBadRequest, "unknown op")
	}
}

func startEcho(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", echoHandler, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(ClientOptions{})
	t.Cleanup(func() { cl.Close(); srv.Close() })
	return srv, cl
}

func TestClientServerExchange(t *testing.T) {
	srv, cl := startEcho(t)
	ctx := context.Background()

	if err := cl.Ping(ctx, srv.Addr()); err != nil {
		t.Fatalf("ping: %v", err)
	}
	resp, err := cl.Do(ctx, srv.Addr(), OpPutBatch, []byte("echo me"))
	if err != nil || string(resp) != "echo me" {
		t.Fatalf("do: %q err %v", resp, err)
	}

	var got []string
	err = cl.Stream(ctx, srv.Addr(), OpScan, nil, func(op byte, p []byte) (bool, error) {
		if op == OpScanBatch {
			got = append(got, string(p))
		}
		return true, nil
	})
	if err != nil || strings.Join(got, "") != "012" {
		t.Fatalf("stream: %v err %v", got, err)
	}

	_, err = cl.Do(ctx, srv.Addr(), OpGet, []byte("k"))
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeStaleRegion {
		t.Fatalf("err = %v, want stale RemoteError", err)
	}

	// A handler that sends nothing must not wedge the client.
	_, err = cl.Do(ctx, srv.Addr(), OpStats, nil)
	if !errors.As(err, &re) || re.Code != CodeInternal {
		t.Fatalf("no-response op: err = %v", err)
	}
}

// TestClientCountsWireBytes: the client counts the bytes it reads off
// the socket, as the server counts the bytes it writes, so over a Get
// and a scan streamed in many frames the client's BytesIn and BytesOut
// equal the server's BytesOut and BytesIn.
func TestClientCountsWireBytes(t *testing.T) {
	val := bytes.Repeat([]byte("v"), 3000)
	h := func(ctx context.Context, op byte, payload []byte, w *ResponseWriter) error {
		if op == OpGet {
			return w.Send(OpResp, val)
		}
		for i := 0; i < 5; i++ {
			b := ScanBatch{Keys: [][]byte{[]byte(fmt.Sprintf("k%d", i))}, Vals: [][]byte{bytes.Repeat(val, 10)}}
			if err := w.Send(OpScanBatch, b.Append(nil)); err != nil {
				return err
			}
		}
		return w.Send(OpScanEnd, nil)
	}
	srv, err := Serve("127.0.0.1:0", h, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(ClientOptions{})
	defer func() { cl.Close(); srv.Close() }()
	ctx := context.Background()
	check := func(what string) {
		t.Helper()
		c, s := cl.Stats(), srv.Stats()
		if c.BytesIn != s.BytesOut || c.BytesOut != s.BytesIn || c.BytesIn == 0 || c.BytesOut == 0 {
			t.Fatalf("after %s: client in/out %d/%d, server out/in %d/%d", what, c.BytesIn, c.BytesOut, s.BytesOut, s.BytesIn)
		}
	}
	get := (&GetReq{Region: 1, Epoch: 1, Key: []byte("k")}).Append(nil)
	if v, err := cl.Do(ctx, srv.Addr(), OpGet, get); err != nil || !bytes.Equal(v, val) {
		t.Fatalf("get: %d bytes, err %v", len(v), err)
	}
	check("a get")
	frames := 0
	scan := (&ScanReq{Region: 1, Epoch: 1, Start: []byte("a"), End: []byte("z")}).Append(nil)
	err = cl.Stream(ctx, srv.Addr(), OpScan, scan, func(op byte, p []byte) (bool, error) {
		frames++
		return true, nil
	})
	if err != nil || frames != 6 {
		t.Fatalf("scan: %d frames, err %v", frames, err)
	}
	check("a streamed scan")
}

func TestClientConcurrentRequests(t *testing.T) {
	srv, cl := startEcho(t)
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := []byte(fmt.Sprintf("payload-%d", i))
			resp, err := cl.Do(context.Background(), srv.Addr(), OpPutBatch, p)
			if err == nil && !bytes.Equal(resp, p) {
				err = fmt.Errorf("cross-talk: got %q want %q", resp, p)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestClientCancellation(t *testing.T) {
	block := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", func(ctx context.Context, op byte, p []byte, w *ResponseWriter) error {
		<-block
		return w.Send(OpResp, nil)
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); srv.Close() }()
	cl := NewClient(ClientOptions{})
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { _, err := cl.Do(ctx, srv.Addr(), OpPing, nil); done <- err }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock the exchange")
	}
}

func TestClientTransportError(t *testing.T) {
	cl := NewClient(ClientOptions{DialTimeout: 200 * time.Millisecond})
	defer cl.Close()
	_, err := cl.Do(context.Background(), "127.0.0.1:1", OpPing, nil)
	if !IsTransport(err) {
		t.Fatalf("err = %v, want transport error", err)
	}
}
