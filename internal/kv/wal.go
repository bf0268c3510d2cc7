package kv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"just/internal/compress"
)

// wal is a write-ahead log. Every batch is appended, flushed and synced
// before it reaches the memtable (appendBatch, the group commit), so a
// batch acknowledged by Apply survives a crash. Records:
//
//	[payloadLen u32][crc32(payload) u32][payload]
//	payload = entry | [walBatchTag u8][count uvarint]entry*
//	entry   = [kind u8][keyLen uvarint][key][valueLen uvarint][value]
//
// The writer frames only batch envelopes; replay still decodes a lone
// entry, which older logs hold. A batch is one record: its CRC covers
// the whole envelope, so replay applies it all-or-nothing — a torn tail can
// never resurrect a prefix of a batch (e.g. an upsert's tombstone
// without its matching put). Replay stops at the first torn or corrupt
// record (standard truncated-tail recovery) and reports the offset of
// the end of the last valid record so the caller can truncate the
// garbage tail before appending again.
type wal struct {
	f    File
	w    *bufio.Writer
	buf  []byte
	zbuf []byte // scratch for compressed-envelope records
	n    int64  // bytes appended
	// lz4 enables compressed record envelopes: payloads past a size
	// threshold are wrapped as [walCompressedTag][codec frame] when the
	// wrap is smaller. The record CRC covers the compressed bytes; the
	// frame's own checksum covers the raw payload after inflation.
	lz4 bool
}

// walBatchTag marks a batch-envelope payload. It must stay disjoint from
// the kind values (kindPut, kindDelete) that open a single-entry payload.
const walBatchTag = 0xB0

// walCompressedTag marks an lz4-frame-compressed payload; the inflated
// bytes are a regular payload (entry or batch envelope). Disjoint from
// the kinds and walBatchTag so old logs replay unchanged.
const walCompressedTag = 0xC1

// walCompressMin is the payload size below which compression is not
// attempted: small records are mostly headers and unique keys, and the
// frame overhead would eat any win.
const walCompressMin = 512

func openWAL(fs VFS, path string, lz4 bool) (*wal, error) {
	f, err := fs.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("kv: open wal: %w", err)
	}
	return &wal{f: f, w: bufio.NewWriterSize(f, 64<<10), lz4: lz4}, nil
}

// appendRecord frames p as one CRC-checked record, wrapping large
// payloads in a compressed envelope when the store's codec is lz4 and
// the wrap actually shrinks them.
func (l *wal) appendRecord(p []byte) error {
	if l.lz4 && len(p) >= walCompressMin {
		l.zbuf = append(l.zbuf[:0], walCompressedTag)
		l.zbuf = compress.CompressLZ4Frame(l.zbuf, p)
		if len(l.zbuf) < len(p) {
			p = l.zbuf
		}
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(p)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(p))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := l.w.Write(p); err != nil {
		return err
	}
	l.n += int64(len(hdr) + len(p))
	return nil
}

func appendWALEntry(p []byte, k kind, key, value []byte) []byte {
	p = append(p, byte(k))
	p = binary.AppendUvarint(p, uint64(len(key)))
	p = append(p, key...)
	p = binary.AppendUvarint(p, uint64(len(value)))
	p = append(p, value...)
	return p
}

// encodeBatchPayload encodes muts as one batch-envelope payload,
// appending to dst — the sealed unit the WAL frames as a single
// CRC-checked record and the replication layer ships to replicas.
func encodeBatchPayload(dst []byte, muts []mutation) []byte {
	need := 1 + binary.MaxVarintLen64
	for _, m := range muts {
		need += 1 + binary.MaxVarintLen32*2 + len(m.key) + len(m.value)
	}
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, walBatchTag)
	dst = binary.AppendUvarint(dst, uint64(len(muts)))
	for _, m := range muts {
		dst = appendWALEntry(dst, m.k, m.key, m.value)
	}
	return dst
}

// decodeBatchPayload is the inverse of encodeBatchPayload: it decodes a
// shipped payload (a batch envelope or a single entry) into mutations.
// The returned slices alias p.
func decodeBatchPayload(p []byte) ([]mutation, error) {
	var muts []mutation
	err := replayPayload(p, func(k kind, key, value []byte) error {
		muts = append(muts, mutation{k: k, key: key, value: value})
		return nil
	})
	return muts, err
}

// appendBatch appends every mutation as one batch-envelope record, then
// flushes the buffer and fsyncs the file — the group-commit boundary.
// It returns the bytes appended. After a nil return, the whole batch is
// durable against a crash; on replay the envelope's single CRC makes the
// batch atomic (all mutations or none).
func (l *wal) appendBatch(muts []mutation) (int64, error) {
	l.buf = encodeBatchPayload(l.buf[:0], muts)
	start := l.n
	if err := l.appendRecord(l.buf); err != nil {
		return l.n - start, err
	}
	if err := l.w.Flush(); err != nil {
		return l.n - start, err
	}
	if err := l.f.Sync(); err != nil {
		return l.n - start, err
	}
	return l.n - start, nil
}

func (l *wal) close() error {
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// replayWAL feeds every intact record in the log at path to fn,
// tolerating a torn tail, and returns the file offset just past the last
// valid record. Bytes beyond that offset are garbage (a torn or corrupt
// tail); a caller that will append to the file again must truncate to
// the returned offset first, or the garbage would hide everything
// appended after it on the next replay. The key and value slices alias a
// buffer reused across records; fn must copy anything it retains.
func replayWAL(fs VFS, path string, fn func(k kind, key, value []byte) error) (int64, error) {
	f, err := fs.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, 1<<62), 64<<10)
	var off int64
	var hdr [8]byte
	var buf []byte // grown once to the largest record, reused across records
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, nil // clean EOF or torn header: stop
		}
		plen := binary.LittleEndian.Uint32(hdr[0:])
		want := binary.LittleEndian.Uint32(hdr[4:])
		if plen > 1<<30 {
			return off, nil // implausible length: treat as torn tail
		}
		if uint32(cap(buf)) < plen {
			buf = make([]byte, plen)
		}
		payload := buf[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, nil
		}
		if crc32.ChecksumIEEE(payload) != want {
			return off, nil
		}
		if err := replayPayload(payload, fn); err != nil {
			if errors.Is(err, ErrCorrupt) {
				return off, nil // undecodable despite CRC: treat as torn
			}
			return off, err
		}
		off += int64(len(hdr)) + int64(plen)
	}
}

// replayPayload decodes one record payload — a single entry or a batch
// envelope — and applies each entry via fn.
func replayPayload(p []byte, fn func(k kind, key, value []byte) error) error {
	if len(p) == 0 {
		return ErrCorrupt
	}
	if p[0] == walCompressedTag {
		raw, err := compress.DecompressLZ4Frame(p[1:])
		if err != nil {
			return fmt.Errorf("%w: wal envelope: %v", ErrCorrupt, err)
		}
		// The inflated bytes must be a plain payload: a nested
		// compressed tag is structurally invalid (the writer never
		// produces one) and recursing on it would be attacker-steered.
		if len(raw) == 0 || raw[0] == walCompressedTag {
			return ErrCorrupt
		}
		return replayPayload(raw, fn)
	}
	if p[0] != walBatchTag {
		k, key, value, _, err := decodeWALEntry(p)
		if err != nil {
			return err
		}
		return fn(k, key, value)
	}
	p = p[1:]
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return ErrCorrupt
	}
	p = p[n:]
	for i := uint64(0); i < count; i++ {
		k, key, value, rest, err := decodeWALEntry(p)
		if err != nil {
			return err
		}
		if err := fn(k, key, value); err != nil {
			return err
		}
		p = rest
	}
	if len(p) != 0 {
		return ErrCorrupt
	}
	return nil
}

// decodeWALEntry decodes one [kind][klen][key][vlen][value] entry from
// the front of p, returning the remainder.
func decodeWALEntry(p []byte) (kind, []byte, []byte, []byte, error) {
	if len(p) < 1 {
		return 0, nil, nil, nil, ErrCorrupt
	}
	k := kind(p[0])
	if k != kindPut && k != kindDelete {
		return 0, nil, nil, nil, ErrCorrupt
	}
	p = p[1:]
	klen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < klen {
		return 0, nil, nil, nil, ErrCorrupt
	}
	key := p[n : n+int(klen)]
	p = p[n+int(klen):]
	vlen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < vlen {
		return 0, nil, nil, nil, ErrCorrupt
	}
	value := p[n : n+int(vlen)]
	return k, key, value, p[n+int(vlen):], nil
}
