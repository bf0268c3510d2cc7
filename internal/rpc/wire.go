package rpc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
)

// Error codes carried by OpError frames. The routing client lifts them
// back into typed errors (ErrStaleRegion and friends in internal/kv) so
// retry logic never string-matches messages.
const (
	CodeInternal    byte = 0x00 // unclassified server-side failure
	CodeStaleRegion byte = 0x01 // region/epoch unknown here: refresh the map
	CodeNotFound    byte = 0x02 // point read missed
	CodeUnavailable byte = 0x03 // region hosted but not servable
	CodeShipGap     byte = 0x04 // ship seq discontinuity: reseed the replica
	CodeBadRequest  byte = 0x05 // undecodable or inconsistent request
	CodeClosed      byte = 0x06 // node shutting down
	CodeDeadline    byte = 0x07 // request abandoned: caller's budget expired
)

// RemoteError is a typed failure returned by a peer via an OpError
// frame.
type RemoteError struct {
	Code byte
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error %#02x: %s", e.Code, e.Msg)
}

// TransportError wraps a connection-level failure (dial, read, write,
// frame corruption): the request's outcome on the peer is unknown, as
// opposed to a RemoteError, which the peer definitively produced.
type TransportError struct {
	Addr string
	Err  error
}

func (e *TransportError) Error() string { return fmt.Sprintf("rpc: %s: %v", e.Addr, e.Err) }
func (e *TransportError) Unwrap() error { return e.Err }

// IsTransport reports whether err is a connection-level failure (the
// request may or may not have executed on the peer).
func IsTransport(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}

// AppendError encodes an OpError payload.
func AppendError(dst []byte, code byte, msg string) []byte {
	dst = append(dst, code)
	return append(dst, msg...)
}

// DecodeError decodes an OpError payload.
func DecodeError(p []byte) *RemoteError {
	if len(p) == 0 {
		return &RemoteError{Code: CodeInternal, Msg: "empty error frame"}
	}
	return &RemoteError{Code: p[0], Msg: string(p[1:])}
}

// ---- binary payload helpers -------------------------------------------------
//
// Hot-path messages (puts, gets, scans, shipments) use a hand-rolled
// varint format; infrequent admin messages (topology, status, stats)
// use JSON via Marshal/UnmarshalAdmin below.

var errShort = errors.New("rpc: truncated message")

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendOptBytes encodes a nil-able slice: 0 = nil, else len+1 bytes.
// nil matters on the wire — a nil KeyRange bound means ±infinity and a
// nil MultiGet value means "missing", both distinct from empty.
func appendOptBytes(dst, b []byte) []byte {
	if b == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b))+1)
	return append(dst, b...)
}

func readUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, errShort
	}
	return v, p[n:], nil
}

func readBytes(p []byte) ([]byte, []byte, error) {
	n, rest, err := readUvarint(p)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(rest)) < n {
		return nil, nil, errShort
	}
	return rest[:n], rest[n:], nil
}

func readOptBytes(p []byte) ([]byte, []byte, error) {
	n, rest, err := readUvarint(p)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, rest, nil
	}
	n--
	if uint64(len(rest)) < n {
		return nil, nil, errShort
	}
	return rest[:n], rest[n:], nil
}

// ---- hot-path messages ------------------------------------------------------

// PutBatchReq applies one sealed batch envelope (the storage layer's
// WAL batch payload) to a region. Epoch guards against stale routing.
type PutBatchReq struct {
	Region  uint64
	Epoch   uint64
	Payload []byte
}

func (m *PutBatchReq) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.Region)
	dst = binary.AppendUvarint(dst, m.Epoch)
	return appendBytes(dst, m.Payload)
}

func (m *PutBatchReq) Decode(p []byte) error {
	var err error
	if m.Region, p, err = readUvarint(p); err != nil {
		return err
	}
	if m.Epoch, p, err = readUvarint(p); err != nil {
		return err
	}
	m.Payload, _, err = readBytes(p)
	return err
}

// GetReq is a point read.
type GetReq struct {
	Region uint64
	Epoch  uint64
	Key    []byte
}

func (m *GetReq) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.Region)
	dst = binary.AppendUvarint(dst, m.Epoch)
	return appendBytes(dst, m.Key)
}

func (m *GetReq) Decode(p []byte) error {
	var err error
	if m.Region, p, err = readUvarint(p); err != nil {
		return err
	}
	if m.Epoch, p, err = readUvarint(p); err != nil {
		return err
	}
	m.Key, _, err = readBytes(p)
	return err
}

// MultiGetReq is a batched point read within one region.
type MultiGetReq struct {
	Region uint64
	Epoch  uint64
	Keys   [][]byte
}

func (m *MultiGetReq) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.Region)
	dst = binary.AppendUvarint(dst, m.Epoch)
	dst = binary.AppendUvarint(dst, uint64(len(m.Keys)))
	for _, k := range m.Keys {
		dst = appendBytes(dst, k)
	}
	return dst
}

func (m *MultiGetReq) Decode(p []byte) error {
	var err error
	if m.Region, p, err = readUvarint(p); err != nil {
		return err
	}
	if m.Epoch, p, err = readUvarint(p); err != nil {
		return err
	}
	var n uint64
	if n, p, err = readUvarint(p); err != nil {
		return err
	}
	if n > uint64(len(p)) { // each key costs >= 1 byte on the wire
		return errShort
	}
	m.Keys = make([][]byte, n)
	for i := range m.Keys {
		if m.Keys[i], p, err = readBytes(p); err != nil {
			return err
		}
	}
	return nil
}

// ValuesResp carries MultiGet results (nil entries = missing keys) or a
// single Get result (one entry).
type ValuesResp struct {
	Vals [][]byte
}

func (m *ValuesResp) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Vals)))
	for _, v := range m.Vals {
		dst = appendOptBytes(dst, v)
	}
	return dst
}

func (m *ValuesResp) Decode(p []byte) error {
	n, p, err := readUvarint(p)
	if err != nil {
		return err
	}
	if n > uint64(len(p))+1 {
		return errShort
	}
	m.Vals = make([][]byte, n)
	for i := range m.Vals {
		if m.Vals[i], p, err = readOptBytes(p); err != nil {
			return err
		}
	}
	return nil
}

// Range is one [Start, End) key interval; nil bounds are ±infinity.
type Range struct {
	Start, End []byte
}

// ScanReq streams key subranges of one region in key order: [Start,
// End), then each of More, which are ascending and start at or after
// the previous range's end. Bounds are nil-able (nil = ±infinity); the
// optional zone interval is a pruning hint forwarded to the region's
// SSTable zone maps and applies to every range. More travels after the
// zone section only when it is non-empty, so a one-range request
// encodes exactly as it did before More existed.
type ScanReq struct {
	Region     uint64
	Epoch      uint64
	Start, End []byte
	Zoned      bool
	ZMin, ZMax int64
	More       []Range
}

func (m *ScanReq) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.Region)
	dst = binary.AppendUvarint(dst, m.Epoch)
	dst = appendOptBytes(dst, m.Start)
	dst = appendOptBytes(dst, m.End)
	if !m.Zoned {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = binary.AppendVarint(dst, m.ZMin)
		dst = binary.AppendVarint(dst, m.ZMax)
	}
	if len(m.More) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.More)))
	for _, r := range m.More {
		dst = appendOptBytes(dst, r.Start)
		dst = appendOptBytes(dst, r.End)
	}
	return dst
}

func (m *ScanReq) Decode(p []byte) error {
	var err error
	if m.Region, p, err = readUvarint(p); err != nil {
		return err
	}
	if m.Epoch, p, err = readUvarint(p); err != nil {
		return err
	}
	if m.Start, p, err = readOptBytes(p); err != nil {
		return err
	}
	if m.End, p, err = readOptBytes(p); err != nil {
		return err
	}
	if len(p) < 1 {
		return errShort
	}
	switch p[0] {
	case 0:
		m.Zoned = false
		p = p[1:]
	case 1:
		m.Zoned = true
		p = p[1:]
		var n int
		if m.ZMin, n = binary.Varint(p); n <= 0 {
			return errShort
		}
		p = p[n:]
		if m.ZMax, n = binary.Varint(p); n <= 0 {
			return errShort
		}
		p = p[n:]
	default:
		return fmt.Errorf("rpc: bad zone tag %d", p[0])
	}
	m.More = nil
	if len(p) == 0 {
		return nil
	}
	n, p, err := readUvarint(p)
	if err != nil {
		return err
	}
	if n > uint64(len(p))/2 { // each range costs >= 2 bytes on the wire
		return errShort
	}
	m.More = make([]Range, n)
	for i := range m.More {
		if m.More[i].Start, p, err = readOptBytes(p); err != nil {
			return err
		}
		if m.More[i].End, p, err = readOptBytes(p); err != nil {
			return err
		}
	}
	return nil
}

// ScanBatch is one streamed chunk of scan results: pairs in key order.
type ScanBatch struct {
	Keys, Vals [][]byte
}

func (m *ScanBatch) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Keys)))
	for i := range m.Keys {
		dst = appendBytes(dst, m.Keys[i])
		dst = appendBytes(dst, m.Vals[i])
	}
	return dst
}

func (m *ScanBatch) Decode(p []byte) error {
	n, p, err := readUvarint(p)
	if err != nil {
		return err
	}
	if n > uint64(len(p))+1 {
		return errShort
	}
	m.Keys = make([][]byte, n)
	m.Vals = make([][]byte, n)
	for i := range m.Keys {
		if m.Keys[i], p, err = readBytes(p); err != nil {
			return err
		}
		if m.Vals[i], p, err = readBytes(p); err != nil {
			return err
		}
	}
	return nil
}

// ShipReq is a primary → replica shipment of one applied batch
// envelope. Seq is the per-region per-replica shipping sequence; a
// replica applies seq == last+1 only and reports CodeShipGap otherwise,
// triggering a reseed.
type ShipReq struct {
	Region  uint64
	Epoch   uint64
	Seq     uint64
	Payload []byte
}

func (m *ShipReq) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.Region)
	dst = binary.AppendUvarint(dst, m.Epoch)
	dst = binary.AppendUvarint(dst, m.Seq)
	return appendBytes(dst, m.Payload)
}

func (m *ShipReq) Decode(p []byte) error {
	var err error
	if m.Region, p, err = readUvarint(p); err != nil {
		return err
	}
	if m.Epoch, p, err = readUvarint(p); err != nil {
		return err
	}
	if m.Seq, p, err = readUvarint(p); err != nil {
		return err
	}
	m.Payload, _, err = readBytes(p)
	return err
}

// ---- admin messages (JSON) --------------------------------------------------

// Region roles on the wire.
const (
	RolePrimary byte = 1
	RoleReplica byte = 2
)

// RegionInfo describes one hosted region in a RegionMapResp.
type RegionInfo struct {
	ID       uint64   `json:"id"`
	Epoch    uint64   `json:"epoch"`
	Start    []byte   `json:"start,omitempty"` // nil = -inf
	End      []byte   `json:"end,omitempty"`   // nil = +inf
	Role     byte     `json:"role"`
	Replicas []string `json:"replicas,omitempty"` // primary only
	Bytes    int64    `json:"bytes"`
	LastSeq  uint64   `json:"last_seq"`
}

// RegionMapResp lists every region a node hosts.
type RegionMapResp struct {
	Node    string       `json:"node"` // the node's advertised address
	Regions []RegionInfo `json:"regions"`
}

// CreateRegionReq asks a node to host a region. Reset wipes any
// existing local store first (the reseed path).
type CreateRegionReq struct {
	ID       uint64   `json:"id"`
	Epoch    uint64   `json:"epoch"`
	Start    []byte   `json:"start,omitempty"`
	End      []byte   `json:"end,omitempty"`
	Role     byte     `json:"role"`
	Replicas []string `json:"replicas,omitempty"`
	Reset    bool     `json:"reset,omitempty"`
}

// SplitReq splits a hosted region at SplitKey into two daughters. The
// primary originates it autonomously and forwards it to replicas so
// every copy bisects at the same point in the mutation stream.
type SplitReq struct {
	Region   uint64 `json:"region"`
	Epoch    uint64 `json:"epoch"`
	SplitKey []byte `json:"split_key"`
	LeftID   uint64 `json:"left_id"`
	RightID  uint64 `json:"right_id"`
}

// MergeReq merges two adjacent hosted regions. NewID/Epoch are zero
// when the router originates the request (the primary allocates them)
// and set when the primary forwards the merge to replicas.
type MergeReq struct {
	Left  uint64 `json:"left"`
	Right uint64 `json:"right"`
	NewID uint64 `json:"new_id,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// PromoteReq turns a replica into the region's primary at NewEpoch with
// the given replica set (the surviving peers).
type PromoteReq struct {
	Region   uint64   `json:"region"`
	NewEpoch uint64   `json:"new_epoch"`
	Replicas []string `json:"replicas,omitempty"`
}

// RetireReq drops a hosted region (the final step of a move).
type RetireReq struct {
	Region uint64 `json:"region"`
}

// StatusReq asks for one region's local state.
type StatusReq struct {
	Region uint64 `json:"region"`
}

// StatusResp reports it.
type StatusResp struct {
	Region  uint64 `json:"region"`
	Epoch   uint64 `json:"epoch"`
	Role    byte   `json:"role"`
	LastSeq uint64 `json:"last_seq"`
	Bytes   int64  `json:"bytes"`
}

// MarshalAdmin / UnmarshalAdmin encode the infrequent admin messages.
func MarshalAdmin(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Admin messages are plain structs; a marshal failure is a bug.
		panic("rpc: marshal admin message: " + err.Error())
	}
	return b
}

func UnmarshalAdmin(p []byte, v any) error {
	if err := json.Unmarshal(p, v); err != nil {
		return fmt.Errorf("rpc: bad admin message: %w", err)
	}
	return nil
}
