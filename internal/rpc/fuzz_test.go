package rpc

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the frame decoder: it must
// never panic, never allocate past the size bound, and whatever it
// accepts must re-encode to an equivalent frame.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendFrame(nil, OpPing, nil))
	f.Add(AppendFrame(nil, OpPutBatch, []byte("payload")))
	f.Add(flagBit0Frame(0)) // rejected: bit 0 once marked an lz4-framed payload
	f.Add([]byte{OpShip, 0xFF, 0x80, 0x80, 0x80})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxLen = 1 << 20
		op, payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)), maxLen)
		if err != nil {
			return
		}
		if len(payload) > maxLen {
			t.Fatalf("payload %d exceeds bound", len(payload))
		}
		// Accepted frames must round-trip through the encoder.
		re := AppendFrame(nil, op, payload)
		op2, payload2, err := ReadFrame(bufio.NewReader(bytes.NewReader(re)), maxLen)
		if err != nil || op2 != op || !bytes.Equal(payload2, payload) {
			t.Fatalf("re-encode mismatch: err=%v", err)
		}
	})
}

// FuzzDecodeMessages runs every binary message decoder over arbitrary
// payloads: none may panic or read out of bounds.
func FuzzDecodeMessages(f *testing.F) {
	f.Add((&PutBatchReq{Region: 1, Epoch: 2, Payload: []byte("p")}).Append(nil))
	f.Add((&MultiGetReq{Region: 1, Keys: [][]byte{[]byte("k")}}).Append(nil))
	f.Add((&ScanReq{Region: 3, End: []byte("z"), Zoned: true, ZMin: -1, ZMax: 9}).Append(nil))
	f.Add((&ScanReq{Region: 3, Start: []byte("a"), End: []byte("b"), More: []Range{{Start: []byte("c"), End: []byte("d")}, {Start: []byte("e")}}}).Append(nil))
	f.Add((&ScanBatch{Keys: [][]byte{[]byte("k")}, Vals: [][]byte{[]byte("v")}}).Append(nil))
	f.Add((&ShipReq{Region: 1, Seq: 7, Payload: []byte("b")}).Append(nil))
	f.Add((&ValuesResp{Vals: [][]byte{nil, {}}}).Append(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var pb PutBatchReq
		_ = pb.Decode(data)
		var g GetReq
		_ = g.Decode(data)
		var mg MultiGetReq
		_ = mg.Decode(data)
		var vr ValuesResp
		_ = vr.Decode(data)
		var sr ScanReq
		_ = sr.Decode(data)
		var sb ScanBatch
		_ = sb.Decode(data)
		var sh ShipReq
		_ = sh.Decode(data)
		_ = DecodeError(data)
	})
}
