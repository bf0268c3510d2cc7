// Package rpc is the wire protocol between JUST's routing layer and its
// networked region servers: length-prefixed binary frames over TCP.
//
// Frame layout (the unit both directions speak):
//
//	[op u8]                 operation / response tag
//	[flags u8]              bit 1: a deadline envelope follows; every
//	                        other bit is rejected (bit 0 once marked an
//	                        lz4-framed payload)
//	[deadline uvarint]      remaining request budget in microseconds,
//	                        present only when flag bit 1 is set
//	[len uvarint]           payload length
//	[payload]               op-specific message bytes
//	[crc32c u32le]          Castagnoli checksum of op, flags, deadline
//	                        and payload
//
// The CRC trailer covers the bytes as sent, so a damaged frame is
// rejected before any decoding runs. Payloads travel uncompressed: at
// the lz4 codec's ~200 MB/s encode and ~500 MB/s decode, framing a
// payload costs more time than its saved bytes take on any link faster
// than about 0.5 Gb/s (see DESIGN.md).
//
// The deadline envelope propagates the caller's remaining time budget
// to the peer: the serving side derives a per-request context from it,
// so work whose caller already gave up is abandoned server-side instead
// of burning CPU into a dead socket. Frames without the flag decode
// exactly as before, so pre-envelope peers interoperate.
//
// One request frame yields one or more response frames: every request
// is answered by a terminal OpResp or OpError, except scans, which
// stream zero or more OpScanBatch frames before a terminal OpScanEnd
// or OpError. Requests on one connection are strictly sequential; the
// one exception is OpCancel, which a client may send mid-stream to
// abandon a streaming response — the server tears the work down
// instead of producing batches nobody reads. The routing client pools
// connections for concurrency.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Operation bytes. Requests and responses share one namespace so a
// frame is self-describing in isolation (the fuzzer and any wire
// tracer can decode either direction).
const (
	// Requests.
	OpPing         byte = 0x01 // liveness probe; payload empty
	OpPutBatch     byte = 0x02 // apply a batch envelope to a region
	OpGet          byte = 0x03 // point read
	OpMultiGet     byte = 0x04 // batched point reads
	OpScan         byte = 0x05 // range scan; streams OpScanBatch frames
	OpShip         byte = 0x06 // primary -> replica WAL-batch shipment
	OpRegionMap    byte = 0x07 // list hosted regions (routing refresh)
	OpCreateRegion byte = 0x08 // host a new region (bootstrap / reseed)
	OpSplit        byte = 0x09 // split a hosted region at a key
	OpMerge        byte = 0x0A // merge two adjacent hosted regions
	OpPromote      byte = 0x0B // replica -> primary leadership transfer
	OpRetire       byte = 0x0C // drop a hosted region (post-move)
	OpStatus       byte = 0x0D // one region's seq/epoch/role
	OpFlush        byte = 0x0E // flush all hosted regions
	OpCompact      byte = 0x0F // compact all hosted regions
	OpStats        byte = 0x10 // node storage metrics snapshot

	// OpCancel is the one mid-stream request: the client abandons the
	// streaming response in flight on this connection. The server stops
	// producing frames and tears the request down; the connection is not
	// reused afterwards.
	OpCancel byte = 0x20

	// Responses.
	OpResp      byte = 0x40 // terminal success; payload op-specific
	OpError     byte = 0x41 // terminal failure; payload [code u8][msg]
	OpScanBatch byte = 0x42 // one batch of scan pairs; more follow
	OpScanEnd   byte = 0x43 // terminal end-of-scan
)

// flagDeadline is the one frame flag bit: a deadline envelope follows.
const flagDeadline byte = 1 << 1

// DefaultMaxFrameBytes bounds a frame's payload; a peer advertising a
// larger length is treated as corrupt (or hostile) before any
// allocation happens.
const DefaultMaxFrameBytes = 16 << 20

// Frame decoding errors.
var (
	ErrFrameTooLarge = errors.New("rpc: frame exceeds size bound")
	ErrBadCRC        = errors.New("rpc: frame checksum mismatch")
	ErrBadFrame      = errors.New("rpc: malformed frame")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one encoded frame carrying payload to dst.
func AppendFrame(dst []byte, op byte, payload []byte) []byte {
	return AppendFrameDeadline(dst, op, payload, 0)
}

// AppendFrameDeadline is AppendFrame with a deadline envelope:
// deadlineMicros > 0 propagates the caller's remaining time budget in
// the frame header (flag bit 1), 0 omits the envelope entirely, which
// keeps the frame byte-identical to the pre-envelope format.
func AppendFrameDeadline(dst []byte, op byte, payload []byte, deadlineMicros uint64) []byte {
	var hdr [2 + binary.MaxVarintLen64]byte
	hdr[0] = op
	hn := 2
	if deadlineMicros > 0 {
		hdr[1] = flagDeadline
		hn += binary.PutUvarint(hdr[2:], deadlineMicros)
	}
	dst = append(dst, hdr[:hn]...)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.Update(0, castagnoli, hdr[:hn])
	crc = crc32.Update(crc, castagnoli, payload)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// byteReader is the minimal reader ReadFrame needs: buffered byte-wise
// access for the header plus bulk reads for the payload.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// ReadFrame decodes one frame from r, verifying the CRC trailer. maxLen
// bounds the payload (0 means DefaultMaxFrameBytes). The returned payload is a
// fresh allocation owned by the caller. io.EOF is returned unchanged
// when the stream ends cleanly before the first byte.
func ReadFrame(r byteReader, maxLen int) (op byte, payload []byte, err error) {
	op, _, payload, err = ReadFrameDeadline(r, maxLen)
	return op, payload, err
}

// ReadFrameDeadline is ReadFrame plus the deadline envelope: for frames
// carrying one (flag bit 1), deadlineMicros is the sender's remaining
// request budget in microseconds; for plain frames it is 0.
func ReadFrameDeadline(r byteReader, maxLen int) (op byte, deadlineMicros uint64, payload []byte, err error) {
	if maxLen <= 0 {
		maxLen = DefaultMaxFrameBytes
	}
	op, err = r.ReadByte()
	if err != nil {
		return 0, 0, nil, err
	}
	flags, err := r.ReadByte()
	if err != nil {
		return 0, 0, nil, eofIsUnexpected(err)
	}
	if flags&^flagDeadline != 0 {
		return 0, 0, nil, fmt.Errorf("%w: unknown flags %#02x", ErrBadFrame, flags)
	}
	var hdr [2 + binary.MaxVarintLen64]byte
	hdr[0], hdr[1] = op, flags
	hn := 2
	if flags&flagDeadline != 0 {
		deadlineMicros, err = binary.ReadUvarint(r)
		if err != nil {
			return 0, 0, nil, eofIsUnexpected(err)
		}
		if deadlineMicros == 0 {
			return 0, 0, nil, fmt.Errorf("%w: zero deadline envelope", ErrBadFrame)
		}
		hn += binary.PutUvarint(hdr[2:], deadlineMicros)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, nil, eofIsUnexpected(err)
	}
	if n > uint64(maxLen) {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes (max %d)", ErrFrameTooLarge, n, maxLen)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, eofIsUnexpected(err)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return 0, 0, nil, eofIsUnexpected(err)
	}
	crc := crc32.Update(0, castagnoli, hdr[:hn])
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != binary.LittleEndian.Uint32(trailer[:]) {
		return 0, 0, nil, ErrBadCRC
	}
	return op, deadlineMicros, payload, nil
}

// eofIsUnexpected converts a mid-frame EOF into io.ErrUnexpectedEOF so
// only a clean between-frames EOF surfaces as io.EOF.
func eofIsUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
