package kv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"just/internal/compress"
)

// SSTable layout (format 2, magic "JUSTSST2"):
//
//	[data block]* [bloom filter] [block index] [footer]
//
// The block index is `[n uvarint] [entry]*n [lastKey]`, then, if a key
// family with a prefix length was registered, the prefix summary:
// `[families uvarint]`, per family `[prefix] [plen uvarint] [count
// uvarint] [tail]*count`, the sorted, distinct plen-byte prefixes of its
// keys (tombstones too) less the family prefix. A file without it has none.
//
// Data blocks hold sorted entries `[kind u8][klen uvarint][vlen uvarint]
// [key][value]` and are individually (and optionally) compressed under a
// per-block codec (gzip or lz4) — the storage half of the paper's
// compression mechanism lives at the value layer, but block compression
// keeps the substrate honest about IO volume. The index records each
// block's first key, so a scan seeks directly to its first candidate
// block; each index entry may also carry a zone map (min/max record time
// over the block's values, extracted at build time by a registered
// ZoneExtractor) letting a time-bounded scan skip whole blocks before
// they are read or decompressed. The index entry's trailing byte is a
// flags byte — bit 0 compressed, bit 1 zone-map present, bit 2 a codec
// byte follows the zone varints — so pre-zone-map files (plain 0/1 byte)
// and gzip-era files (bit 0 only, no codec byte) still decode, while
// newer codecs are named explicitly per block. Codecs may be mixed
// freely across the tables of one region (old gzip tables next to new
// lz4 ones); compaction rewrites every surviving block in the region's
// configured codec.
//
// Integrity: every byte of the file is covered by a CRC32C. Each index
// entry carries the checksum of its block's on-disk bytes, verified on
// every cache-miss load; the footer carries checksums of the bloom
// filter, the index, and of itself. A checksum mismatch on a read is
// first retried once (a transient bus/DMA flip re-reads clean); a
// persistent mismatch is reported as *ErrCorruptBlock — corrupt data is
// never decoded, let alone served.
//
// Tables are written to `<name>.tmp` and renamed into place after the
// final fsync, so a crash mid-build can never leave a half-written file
// under a live name; region open deletes orphaned .tmp files.
const (
	blockTargetSize = 4 << 10
	footerSize      = 64
	tableMagic      = 0x4a555354_53535432 // "JUSTSST2"

	// maxBlockReadRetries re-reads a block whose checksum failed before
	// declaring it corrupt: a mismatch caused by a transient fault on
	// the read path (not damaged media) clears on re-read. Two retries
	// drive the odds of a transient fault masquerading as disk
	// corruption to (per-read fault rate)^3.
	maxBlockReadRetries = 2
)

// castagnoli is the CRC32C table used for all SSTable checksums (the
// polynomial with hardware support on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptBlock reports a persistent checksum mismatch (or an
// undecodable structure) in one SSTable region. It unwraps to
// ErrCorrupt, so existing errors.Is(err, ErrCorrupt) checks still hold;
// the cluster layer uses the Path to quarantine the damaged table and
// repair the region from a replica.
type ErrCorruptBlock struct {
	Path   string // file the corruption was detected in
	Block  int    // data block ordinal, or -1 for footer/index/bloom
	Offset int64  // file offset of the damaged region
	Len    int    // length of the damaged region
}

func (e *ErrCorruptBlock) Error() string {
	if e.Block < 0 {
		return fmt.Sprintf("kv: corrupt sstable metadata in %s (offset %d, %d bytes)", e.Path, e.Offset, e.Len)
	}
	return fmt.Sprintf("kv: corrupt sstable block %d in %s (offset %d, %d bytes): checksum mismatch", e.Block, e.Path, e.Offset, e.Len)
}

func (e *ErrCorruptBlock) Unwrap() error { return ErrCorrupt }

// Per-block codec ids, stored in the index entry's codec byte for any
// codec beyond the legacy gzip flag. blockCodecGzip is never written as
// an explicit byte (gzip blocks keep the PR 4-era flags-bit-0-only
// encoding for compatibility) but exists so handles carry one uniform
// codec field.
const (
	blockCodecNone = 0
	blockCodecGzip = 1
	blockCodecLZ4  = 2
)

type blockHandle struct {
	firstKey []byte
	offset   uint64
	length   uint32
	rawLen   uint32
	crc      uint32 // CRC32C of the block's on-disk (possibly compressed) bytes
	codec    uint8  // blockCodec*; what the stored bytes are coded with

	// Zone map: min/max of the value-level zone attribute (record time,
	// in ms) over every entry in the block. hasZone is false when any
	// entry lacked a zone (tombstones, foreign key prefixes, no
	// extractor registered at build time) — such a block is never
	// skipped, which is what makes pruning free of false negatives.
	hasZone    bool
	zmin, zmax int64
}

// ZoneExtractor derives the zone attribute (a [min, max] time interval
// in ms) from one stored pair at SSTable build time. ok = false means
// the pair has no zone, poisoning its block's zone map.
type ZoneExtractor func(key, value []byte) (zmin, zmax int64, ok bool)

// summary is one key family's prefix summary in a table: the distinct
// plen-byte prefixes of its keys, ascending, as tailOf their tails.
type summary struct {
	prefix []byte
	plen   int
	tails  []uint64
}

// tailOf reads a prefix's tail past the family prefix (≤ 8 bytes) as a
// big-endian number, so tails of one width order as their bytes do.
func tailOf(b []byte) uint64 {
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

// add records key's prefix; keys arrive in ascending order.
func (s *summary) add(key []byte) {
	if s.plen == 0 || len(key) < s.plen {
		return
	}
	if v := tailOf(key[len(s.prefix):s.plen]); len(s.tails) == 0 || s.tails[len(s.tails)-1] != v {
		s.tails = append(s.tails, v)
	}
}

// newSummaries starts one build's summaries, parallel to fams: a family
// whose prefix length is 1 to 8 bytes past a prefix that nests with no
// other family's (so every key under it counts to it) is summarised.
func newSummaries(fams []KeyFamily) []summary {
	sums := make([]summary, len(fams))
	for i, f := range fams {
		nested := false
		for j, g := range fams {
			nested = nested || (j != i && (bytes.HasPrefix(f.prefix, g.prefix) || bytes.HasPrefix(g.prefix, f.prefix)))
		}
		if w := f.PrefixLen - len(f.prefix); w > 0 && w <= 8 && !nested {
			sums[i] = summary{prefix: f.prefix, plen: f.PrefixLen}
		}
	}
	return sums
}

type tableWriter struct {
	fs    VFS
	w     *bufio.Writer
	f     File
	path  string // final path; bytes are written to path+".tmp"
	codec uint8  // blockCodec*; the codec new blocks are written with
	// The key families when the build began, and their summaries.
	fams []KeyFamily
	sums []summary

	block    bytes.Buffer
	cblock   []byte // the compressed block, reused: it is only written and checksummed
	blockKey []byte // first key of the current block
	index    []blockHandle
	hashes   []uint64 // each key's bloomHash: 8 bytes a key, not a copy of it
	offset   uint64
	count    uint64
	lastKey  []byte

	// Zone accumulator for the block being built.
	zoneOK     bool
	zmin, zmax int64
}

func tmpPath(path string) string { return path + ".tmp" }

// newTableWriter starts a table; n is the number of entries the caller
// expects to add, which sizes the bloom hashes (a guess that is off only
// costs a reallocation).
func newTableWriter(fs VFS, path string, codec uint8, fams []KeyFamily, n int) (*tableWriter, error) {
	f, err := fs.Create(tmpPath(path))
	if err != nil {
		return nil, fmt.Errorf("kv: create sstable: %w", err)
	}
	return &tableWriter{fs: fs, f: f, w: bufio.NewWriterSize(f, 256<<10), path: path, codec: codec,
		fams: fams, sums: newSummaries(fams), hashes: make([]uint64, 0, n)}, nil
}

// add appends an entry; keys must arrive in strictly ascending order.
func (t *tableWriter) add(key, value []byte, k kind) error {
	if t.lastKey != nil && bytes.Compare(key, t.lastKey) <= 0 {
		return fmt.Errorf("kv: sstable keys out of order: %q after %q", key, t.lastKey)
	}
	if t.block.Len() == 0 {
		t.blockKey = append([]byte(nil), key...)
		t.zoneOK = len(t.fams) > 0
	}
	fi := slices.IndexFunc(t.fams, func(f KeyFamily) bool { return bytes.HasPrefix(key, f.prefix) })
	if fi >= 0 {
		t.sums[fi].add(key)
	}
	if t.zoneOK {
		// Tombstones have no zone and must shadow older versions in any
		// scan, so their block can never be pruned.
		zmin, zmax, ok := int64(0), int64(0), false
		if k == kindPut && fi >= 0 && t.fams[fi].Zone != nil {
			zmin, zmax, ok = t.fams[fi].Zone(key, value)
		}
		switch {
		case !ok:
			t.zoneOK = false
		case t.block.Len() == 0:
			t.zmin, t.zmax = zmin, zmax
		default:
			if zmin < t.zmin {
				t.zmin = zmin
			}
			if zmax > t.zmax {
				t.zmax = zmax
			}
		}
	}
	var hdr [1 + 2*binary.MaxVarintLen32]byte
	hdr[0] = byte(k)
	n := 1
	n += binary.PutUvarint(hdr[n:], uint64(len(key)))
	n += binary.PutUvarint(hdr[n:], uint64(len(value)))
	t.block.Write(hdr[:n])
	t.block.Write(key)
	t.block.Write(value)
	t.hashes = append(t.hashes, bloomHash(key))
	t.lastKey = append(t.lastKey[:0], key...)
	t.count++
	if t.block.Len() >= blockTargetSize {
		return t.flushBlock()
	}
	return nil
}

func (t *tableWriter) flushBlock() error {
	if t.block.Len() == 0 {
		return nil
	}
	raw := t.block.Bytes()
	out := raw
	codec := uint8(blockCodecNone)
	// Compression is a win, not a requirement: a block that does not
	// shrink under its codec is stored raw.
	switch t.codec {
	case blockCodecGzip:
		var cb bytes.Buffer
		if err := compress.CompressGzip(&cb, raw); err != nil {
			return err
		}
		if cb.Len() < len(raw) {
			out = cb.Bytes()
			codec = blockCodecGzip
		}
	case blockCodecLZ4:
		t.cblock = compress.CompressLZ4(t.cblock[:0], raw)
		if len(t.cblock) < len(raw) {
			out = t.cblock
			codec = blockCodecLZ4
		}
	}
	if _, err := t.w.Write(out); err != nil {
		return err
	}
	t.index = append(t.index, blockHandle{
		firstKey: t.blockKey,
		offset:   t.offset,
		length:   uint32(len(out)),
		rawLen:   uint32(len(raw)),
		crc:      crc32.Checksum(out, castagnoli),
		codec:    codec,
		hasZone:  t.zoneOK,
		zmin:     t.zmin,
		zmax:     t.zmax,
	})
	t.offset += uint64(len(out))
	t.block.Reset()
	return nil
}

// finish writes the bloom filter, index and checksummed footer, syncs
// the file, and renames it from its .tmp build name to the final path
// (fsyncing the directory so the rename is durable). It returns the
// total file size.
func (t *tableWriter) finish() (int64, error) {
	if err := t.flushBlock(); err != nil {
		return 0, err
	}
	bloom := newBloomFilter(len(t.hashes))
	for _, h := range t.hashes {
		bloom.addHash(h)
	}
	bloomBytes := bloom.marshal()
	bloomOff := t.offset
	if _, err := t.w.Write(bloomBytes); err != nil {
		return 0, err
	}
	t.offset += uint64(len(bloomBytes))

	idx := t.encodeIndex()
	indexOff := t.offset
	if _, err := t.w.Write(idx); err != nil {
		return 0, err
	}
	t.offset += uint64(len(idx))

	// Footer: five u64 handles, the bloom/index checksums, a checksum of
	// the footer bytes themselves, then the magic. A torn footer write
	// (the crash boundary of a table build) fails the footer CRC.
	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:], bloomOff)
	binary.LittleEndian.PutUint64(footer[8:], uint64(len(bloomBytes)))
	binary.LittleEndian.PutUint64(footer[16:], indexOff)
	binary.LittleEndian.PutUint64(footer[24:], uint64(len(idx)))
	binary.LittleEndian.PutUint64(footer[32:], t.count)
	binary.LittleEndian.PutUint32(footer[40:], crc32.Checksum(bloomBytes, castagnoli))
	binary.LittleEndian.PutUint32(footer[44:], crc32.Checksum(idx, castagnoli))
	binary.LittleEndian.PutUint32(footer[48:], crc32.Checksum(footer[0:48], castagnoli))
	binary.LittleEndian.PutUint64(footer[56:], tableMagic)
	if _, err := t.w.Write(footer[:]); err != nil {
		return 0, err
	}
	t.offset += footerSize
	if err := t.w.Flush(); err != nil {
		return 0, err
	}
	if err := t.f.Sync(); err != nil {
		return 0, err
	}
	if err := t.f.Close(); err != nil {
		return 0, err
	}
	if err := t.fs.Rename(tmpPath(t.path), t.path); err != nil {
		return 0, err
	}
	// The rename's directory entry must be durable before the manifest
	// can reference the table: fsync the directory.
	if err := t.fs.SyncDir(filepath.Dir(t.path)); err != nil {
		return 0, err
	}
	return int64(t.offset), nil
}

// encodeIndex encodes the block index (see the layout at the top).
func (t *tableWriter) encodeIndex() []byte {
	var idx bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		idx.Write(scratch[:n])
	}
	writeUvarint(uint64(len(t.index)))
	for _, h := range t.index {
		writeUvarint(uint64(len(h.firstKey)))
		idx.Write(h.firstKey)
		writeUvarint(h.offset)
		writeUvarint(uint64(h.length))
		writeUvarint(uint64(h.rawLen))
		writeUvarint(uint64(h.crc))
		// The former 0/1 compressed byte is a flags byte: bit 0 =
		// compressed, bit 1 = zone map follows, bit 2 = a codec byte
		// follows the zone varints. Files written before zone maps
		// decode unchanged (flags 0/1, no zone); gzip blocks keep the
		// bit-0-only encoding so gzip-era readers and files stay
		// byte-compatible, and only non-gzip codecs spend the extra
		// byte.
		var flags byte
		if h.codec != blockCodecNone {
			flags |= 1
		}
		if h.hasZone {
			flags |= 2
		}
		if h.codec > blockCodecGzip {
			flags |= 4
		}
		idx.WriteByte(flags)
		if h.hasZone {
			n := binary.PutVarint(scratch[:], h.zmin)
			idx.Write(scratch[:n])
			n = binary.PutVarint(scratch[:], h.zmax)
			idx.Write(scratch[:n])
		}
		if flags&4 != 0 {
			idx.WriteByte(h.codec)
		}
	}
	writeUvarint(uint64(len(t.lastKey)))
	idx.Write(t.lastKey)
	// The prefix summary section, only when a family is summarised: a
	// table built without one stays byte-identical to the older format.
	sums := slices.DeleteFunc(slices.Clone(t.sums), func(s summary) bool { return s.plen == 0 })
	if len(sums) > 0 {
		writeUvarint(uint64(len(sums)))
		for _, s := range sums {
			writeUvarint(uint64(len(s.prefix)))
			idx.Write(s.prefix)
			writeUvarint(uint64(s.plen))
			writeUvarint(uint64(len(s.tails)))
			for _, v := range s.tails {
				idx.Write(binary.BigEndian.AppendUint64(scratch[:0], v)[8-s.plen+len(s.prefix):])
			}
		}
	}
	return idx.Bytes()
}

// abort discards a partially written table.
func (t *tableWriter) abort() {
	t.f.Close()
	t.fs.Remove(tmpPath(t.path))
}

var nextTableID atomic.Uint64

// table is an open, immutable SSTable.
//
// Lifetime is reference-counted: the owning region holds one reference,
// and every read snapshot (Get, getBatch, Scan iterator) pins the table
// with incRef before releasing the region lock. Background compaction
// can therefore retire a table (drop + decRef) while reads are still
// in flight — the file is closed and unlinked only when the last
// reference is released.
type table struct {
	id      uint64
	fs      VFS
	path    string
	f       File
	refs    atomic.Int32 // open references; starts at 1 (the region's)
	drop    atomic.Bool  // unlink the file when the last ref is released
	index   []blockHandle
	bloom   *bloomFilter
	lastKey []byte
	sums    []summary // the prefix summaries; none in an older file
	count   uint64
	size    int64

	cache   *blockCache
	metrics *Metrics
}

// readChecked fills buf from offset and verifies it against want
// (CRC32C), retrying transient mismatches. It is the common checked-read
// primitive under both data-block loads and metadata reads.
func readChecked(f File, path string, block int, offset int64, buf []byte, want uint32, met *Metrics) error {
	for attempt := 0; ; attempt++ {
		if _, err := f.ReadAt(buf, offset); err != nil {
			return err
		}
		if crc32.Checksum(buf, castagnoli) == want {
			return nil
		}
		if attempt < maxBlockReadRetries {
			if met != nil {
				atomic.AddInt64(&met.ReadRetries, 1)
			}
			continue
		}
		if met != nil {
			atomic.AddInt64(&met.CorruptionsDetected, 1)
		}
		return &ErrCorruptBlock{Path: path, Block: block, Offset: offset, Len: len(buf)}
	}
}

func openTable(fs VFS, path string, cache *blockCache, metrics *Metrics) (*table, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	t, err := loadTableMeta(f, fs, path, metrics)
	if err != nil {
		f.Close()
		return nil, err
	}
	t.cache = cache
	t.refs.Store(1)
	return t, nil
}

// loadTableMeta reads and verifies the footer, bloom filter and index.
// Every read is checksum-verified with transient-fault retries; a
// persistent mismatch is *ErrCorruptBlock (which also unwraps to
// ErrCorrupt, the historical open-failure error).
func loadTableMeta(f File, fs VFS, path string, metrics *Metrics) (*table, error) {
	st, err := fs.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.Size() < footerSize {
		return nil, fmt.Errorf("%w: sstable %s too small", ErrCorrupt, path)
	}
	footerOff := st.Size() - footerSize
	var footer [footerSize]byte
	for attempt := 0; ; attempt++ {
		if _, err := f.ReadAt(footer[:], footerOff); err != nil {
			return nil, err
		}
		if binary.LittleEndian.Uint64(footer[56:]) == tableMagic &&
			crc32.Checksum(footer[0:48], castagnoli) == binary.LittleEndian.Uint32(footer[48:]) {
			break
		}
		if attempt < maxBlockReadRetries {
			if metrics != nil {
				atomic.AddInt64(&metrics.ReadRetries, 1)
			}
			continue
		}
		if binary.LittleEndian.Uint64(footer[56:]) != tableMagic {
			return nil, fmt.Errorf("%w: bad magic in %s", ErrCorrupt, path)
		}
		if metrics != nil {
			atomic.AddInt64(&metrics.CorruptionsDetected, 1)
		}
		return nil, &ErrCorruptBlock{Path: path, Block: -1, Offset: footerOff, Len: footerSize}
	}
	bloomOff := binary.LittleEndian.Uint64(footer[0:])
	bloomLen := binary.LittleEndian.Uint64(footer[8:])
	indexOff := binary.LittleEndian.Uint64(footer[16:])
	indexLen := binary.LittleEndian.Uint64(footer[24:])
	count := binary.LittleEndian.Uint64(footer[32:])
	bloomCRC := binary.LittleEndian.Uint32(footer[40:])
	indexCRC := binary.LittleEndian.Uint32(footer[44:])
	if int64(bloomOff)+int64(bloomLen) > footerOff || int64(indexOff)+int64(indexLen) > footerOff {
		return nil, fmt.Errorf("%w: sstable %s footer handles out of range", ErrCorrupt, path)
	}

	bloomBytes := make([]byte, bloomLen)
	if err := readChecked(f, path, -1, int64(bloomOff), bloomBytes, bloomCRC, metrics); err != nil {
		return nil, err
	}
	bloom, err := unmarshalBloom(bloomBytes)
	if err != nil {
		return nil, err
	}
	idxBytes := make([]byte, indexLen)
	if err := readChecked(f, path, -1, int64(indexOff), idxBytes, indexCRC, metrics); err != nil {
		return nil, err
	}
	index, lastKey, sums, err := decodeIndex(idxBytes)
	if err != nil {
		return nil, err
	}
	return &table{
		id:      nextTableID.Add(1),
		fs:      fs,
		path:    path,
		f:       f,
		index:   index,
		bloom:   bloom,
		lastKey: lastKey,
		sums:    sums,
		count:   count,
		size:    st.Size(),
		metrics: metrics,
	}, nil
}

// decodeIndex decodes a block index and its prefix summaries; bytes it
// cannot decode, however damaged, are ErrCorrupt.
func decodeIndex(b []byte) ([]blockHandle, []byte, []summary, error) {
	r := bytes.NewReader(b)
	// take reads a count of w-byte items, checked against the bytes left
	// before anything is allocated, then the items.
	take := func(w int) ([]byte, error) {
		n, err := binary.ReadUvarint(r)
		if err != nil || n > uint64(r.Len()/w) {
			return nil, ErrCorrupt
		}
		out := make([]byte, int(n)*w)
		io.ReadFull(r, out)
		return out, nil
	}
	n, err := binary.ReadUvarint(r)
	if err != nil || n > uint64(r.Len()/6) { // an entry takes at least 6 bytes
		return nil, nil, nil, ErrCorrupt
	}
	index := make([]blockHandle, 0, n)
	for i := uint64(0); i < n; i++ {
		firstKey, err := take(1)
		if err != nil {
			return nil, nil, nil, err
		}
		var vals [4]uint64
		for j := range vals {
			v, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, nil, nil, ErrCorrupt
			}
			vals[j] = v
		}
		flags, err := r.ReadByte()
		if err != nil {
			return nil, nil, nil, ErrCorrupt
		}
		h := blockHandle{
			firstKey: firstKey,
			offset:   vals[0],
			length:   uint32(vals[1]),
			rawLen:   uint32(vals[2]),
			crc:      uint32(vals[3]),
			hasZone:  flags&2 != 0,
		}
		if flags&1 != 0 {
			// Compressed without an explicit codec byte = the legacy
			// gzip encoding.
			h.codec = blockCodecGzip
		}
		if h.hasZone {
			if h.zmin, err = binary.ReadVarint(r); err != nil {
				return nil, nil, nil, ErrCorrupt
			}
			if h.zmax, err = binary.ReadVarint(r); err != nil {
				return nil, nil, nil, ErrCorrupt
			}
		}
		if flags&4 != 0 {
			c, err := r.ReadByte()
			if err != nil {
				return nil, nil, nil, ErrCorrupt
			}
			h.codec = c
		}
		index = append(index, h)
	}
	lastKey, err := take(1)
	if err != nil || r.Len() == 0 {
		return index, lastKey, nil, err // no summary section
	}
	nf, err := binary.ReadUvarint(r)
	if err != nil || nf == 0 || nf > uint64(r.Len()/3) { // a family takes at least 3 bytes
		return nil, nil, nil, ErrCorrupt
	}
	sums := make([]summary, nf)
	for i := range sums {
		s, plen := &sums[i], uint64(0)
		if s.prefix, err = take(1); err == nil {
			plen, err = binary.ReadUvarint(r)
		}
		if err != nil || plen <= uint64(len(s.prefix)) || plen > uint64(len(s.prefix))+8 {
			return nil, nil, nil, ErrCorrupt
		}
		s.plen = int(plen)
		w := s.plen - len(s.prefix)
		raw, err := take(w)
		if err != nil {
			return nil, nil, nil, err
		}
		for j := 0; j < len(raw); j += w {
			s.tails = append(s.tails, tailOf(raw[j:j+w]))
		}
	}
	if r.Len() != 0 {
		return nil, nil, nil, ErrCorrupt
	}
	return index, lastKey, sums, nil
}

// incRef pins the table for a read snapshot. It must only be called
// while the table is known live — i.e. under the region lock while the
// table is still in r.tables (the region's own reference guarantees
// refs > 0 there).
func (t *table) incRef() { t.refs.Add(1) }

// decRef releases one reference; the last release closes the file and,
// if the table was retired by a compaction, unlinks it and evicts its
// cached blocks.
func (t *table) decRef() error {
	if t.refs.Add(-1) > 0 {
		return nil
	}
	err := t.f.Close()
	if t.drop.Load() {
		t.fs.Remove(t.path)
		if t.cache != nil {
			t.cache.dropTable(t.id)
		}
	}
	return err
}

// retire marks the table for deletion (compaction replaced it) and
// releases the owning region's reference. Callers must have already
// removed the table from r.tables and must hold the region write lock,
// so no reader can be between snapshotting r.tables and incRef.
func (t *table) retire() {
	t.drop.Store(true)
	t.decRef()
}

// close releases the owning region's reference without unlinking; used
// by tests that manage tables directly.
func (t *table) close() error { return t.decRef() }

// firstKey returns the smallest key in the table.
func (t *table) firstKey() []byte {
	if len(t.index) == 0 {
		return nil
	}
	return t.index[0].firstKey
}

// readBlockRaw reads block i's on-disk bytes into buf, grown if short,
// and verifies their checksum, bypassing the cache — the scrub path and
// the disk half of loadBlock. A transient mismatch is retried; a
// persistent one is *ErrCorruptBlock.
func (t *table) readBlockRaw(i int, buf []byte) ([]byte, error) {
	h := t.index[i]
	buf = slices.Grow(buf[:0], int(h.length))[:h.length]
	return buf, readChecked(t.f, t.path, i, int64(h.offset), buf, h.crc, t.metrics)
}

// blockBufs holds the buffers compressed blocks are read into: only the
// inflated copy outlives readBlock.
var blockBufs = sync.Pool{New: func() any { return new([]byte) }}

// loadBlock returns the decompressed contents of block i, via the
// cache, and the cache entry that holds them with a reference taken for
// the caller to release once it holds no view of them (nil without a
// cache). Concurrent misses of one block read it once: the other
// readers wait for that load and count as hits.
func (t *table) loadBlock(i int) ([]byte, *cacheEntry, error) {
	c := t.cache
	if c == nil {
		data, err := t.readBlock(i, nil)
		return data, nil, err
	}
	for {
		e, state := c.acquire(t.id, i)
		switch state {
		case cacheWait:
			// A load is a page-cache read and a decompression, a few
			// microseconds: less than a parked goroutine waits to be
			// woken, so the waiter yields instead of parking. (Parking
			// on a WaitGroup doubled order_st's p95 on a 2-vCPU host.)
			for e.state.Load() == entryLoading {
				runtime.Gosched()
			}
			if e.state.Load() == entryFailed {
				// Each reader of a block that fails to load meets the
				// failure itself, as without the cache: its own read, its
				// own error, its own count of the corruption.
				c.release(e)
				continue
			}
		case cacheMiss:
			if t.metrics != nil {
				atomic.AddInt64(&t.metrics.BlockCacheMisses, 1)
			}
			var err error
			e.data, err = t.readBlock(i, e.data)
			c.loaded(e, err == nil)
			if err != nil {
				c.release(e)
				return nil, nil, err
			}
		}
		if t.metrics != nil {
			if state != cacheMiss {
				atomic.AddInt64(&t.metrics.BlockCacheHits, 1)
			}
			atomic.AddInt64(&t.metrics.BlocksTouched, 1)
		}
		return e.data, e, nil
	}
}

// readBlock reads block i from disk into dst, grown if short: the disk
// bytes are checksum-verified before they are decompressed or decoded.
func (t *table) readBlock(i int, dst []byte) ([]byte, error) {
	h := t.index[i]
	if h.codec == blockCodecNone { // an uncompressed block's disk bytes are the block
		dst, err := t.readBlockRaw(i, dst)
		if err == nil {
			t.countRead(h.length)
		}
		return dst, err
	}
	pooled := blockBufs.Get().(*[]byte)
	disk, err := t.readBlockRaw(i, *pooled)
	defer func() { *pooled = disk; blockBufs.Put(pooled) }()
	if err != nil {
		return dst, err
	}
	t.countRead(h.length)
	dst = slices.Grow(dst[:0], int(h.rawLen))[:h.rawLen]
	switch h.codec {
	case blockCodecGzip:
		err = compress.DecompressGzipLen(dst, disk)
	case blockCodecLZ4:
		err = compress.DecompressLZ4(dst, disk)
	default:
		// A codec id this build does not know: surface it as corruption
		// rather than serving compressed bytes as data.
		return dst, t.corruptBlock(i)
	}
	if err != nil {
		return dst, t.corruptBlock(i)
	}
	return dst, nil
}

// countRead counts one data block read from disk.
func (t *table) countRead(length uint32) {
	if t.metrics != nil {
		atomic.AddInt64(&t.metrics.BytesRead, int64(length))
		atomic.AddInt64(&t.metrics.BlocksRead, 1)
	}
}

// corruptBlock reports block i as corrupt: its checksum matched but its
// contents would not decode (a writer-side fault baked into the file).
func (t *table) corruptBlock(i int) error {
	if t.metrics != nil {
		atomic.AddInt64(&t.metrics.CorruptionsDetected, 1)
	}
	h := t.index[i]
	return &ErrCorruptBlock{Path: t.path, Block: i, Offset: int64(h.offset), Len: int(h.length)}
}

// verify re-reads every data block of the table from disk and checks
// its checksum (cache bypassed: the scrubber must see the disk bytes,
// not a cached decode). It returns the number of blocks verified and
// the first corruption found.
func (t *table) verify() (int64, error) {
	var blocks int64
	for i := range t.index {
		if _, err := t.readBlockRaw(i, nil); err != nil {
			return blocks, err
		}
		blocks++
	}
	return blocks, nil
}

// lacks reports, and counts, whether the table's summary proves it holds
// no key of kr: kr's bounds share (so all its keys start with) a full
// prefix of a summarised family that the summary lacks. O(log prefixes).
func (t *table) lacks(kr KeyRange) bool {
	for i := range t.sums {
		s := &t.sums[i]
		if len(kr.Start) < s.plen || !bytes.HasPrefix(kr.Start, s.prefix) {
			continue
		}
		_, held := slices.BinarySearch(s.tails, tailOf(kr.Start[len(s.prefix):s.plen]))
		if held || len(kr.End) < s.plen || !bytes.Equal(kr.Start[:s.plen], kr.End[:s.plen]) {
			return false
		}
		if t.metrics != nil {
			atomic.AddInt64(&t.metrics.TablesSkipped, 1)
		}
		return true
	}
	return false
}

// blockFor returns the index of the block that could contain key: the
// last block whose first key is <= key.
func (t *table) blockFor(key []byte) int {
	i := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].firstKey, key) > 0
	})
	return i - 1 // may be -1 when key sorts before the first block
}

// get looks up key; ok is false if the table cannot contain it.
func (t *table) get(key []byte) (value []byte, k kind, ok bool, err error) {
	if len(t.index) == 0 || bytes.Compare(key, t.lastKey) > 0 {
		return nil, 0, false, nil
	}
	if !t.bloom.mayContain(key) {
		if t.metrics != nil {
			atomic.AddInt64(&t.metrics.BloomNegatives, 1)
		}
		return nil, 0, false, nil
	}
	bi := t.blockFor(key)
	if bi < 0 {
		return nil, 0, false, nil
	}
	block, e, err := t.loadBlock(bi)
	if err != nil {
		return nil, 0, false, err
	}
	defer t.cache.release(e)
	it := blockIter{data: block}
	for it.next() {
		switch bytes.Compare(it.key, key) {
		case 0:
			return bytes.Clone(it.value), it.kind, true, nil // the caller keeps it past the release
		case 1:
			return nil, 0, false, nil
		}
	}
	if it.corrupt {
		return nil, 0, false, t.corruptBlock(bi)
	}
	return nil, 0, false, nil
}

// blockIter walks entries inside a single decompressed block.
type blockIter struct {
	data    []byte
	pos     int
	key     []byte
	value   []byte
	kind    kind
	corrupt bool // an entry did not decode: the block's bytes are damaged
}

func (b *blockIter) next() bool {
	if b.pos >= len(b.data) {
		return false
	}
	p := b.data[b.pos:]
	if len(p) < 1 {
		b.corrupt = true
		return false
	}
	k := kind(p[0])
	p = p[1:]
	klen, n1 := binary.Uvarint(p)
	if n1 <= 0 {
		b.corrupt = true
		return false
	}
	p = p[n1:]
	vlen, n2 := binary.Uvarint(p)
	if n2 <= 0 {
		b.corrupt = true
		return false
	}
	p = p[n2:]
	if uint64(len(p)) < klen+vlen {
		b.corrupt = true
		return false
	}
	b.key = p[:klen]
	b.value = p[klen : klen+vlen]
	b.kind = k
	b.pos += 1 + n1 + n2 + int(klen) + int(vlen)
	return true
}

// tableIter iterates key ranges of one table in ascending order,
// skipping blocks whose zone map proves they hold nothing in the
// range's zone interval — the block is pruned before it is read from
// disk or decompressed. seek moves it to the next range of a run.
type tableIter struct {
	t     *table
	r     KeyRange
	bi    int // the block held in block; before the first load, the block before the next one to load
	block blockIter
	cur   bool // block.key is an entry not yet moved past: the last returned, or the first at or past r.End
	again bool // the next Next re-checks block.key against r instead of reading on
	done  bool
	err   error

	// older are the tables older than t in its merge, the zone veto: in
	// an LSM merge, pruning a block removes what may be the newest
	// version of its keys, and an older table overlapping the block's
	// key span could then surface a stale version. nil for a lone table.
	older []*table

	// held references the block in block, and prev the one before it: a
	// merge hands out its winner's entry and then advances the winner,
	// which may load the next block, so the entry handed out stays valid
	// until the load after that.
	held, prev *cacheEntry

	// direct: a compaction's, which reads its blocks past the cache with
	// readBlock, into buffers the iterator owns: block's, and spare, the
	// one before it, by the same rule as held and prev.
	direct bool
	spare  []byte
}

// seek moves the iterator to range r. forward promises that r starts at
// or after the end of every range the iterator served before, so every
// entry it passed lies below r.Start: when r.Start then falls before
// the next block's first key, the iterator walks on from its current
// entry inside the block it holds instead of reloading a block and
// walking it from its first entry.
func (it *tableIter) seek(r KeyRange, forward bool) {
	it.r = r
	if it.err != nil {
		return
	}
	it.done = len(it.t.index) == 0
	if forward && it.block.data != nil &&
		(it.bi+1 == len(it.t.index) || bytes.Compare(r.Start, it.t.index[it.bi+1].firstKey) < 0) {
		it.again = it.cur
		return
	}
	it.block, it.cur, it.again = blockIter{}, false, false
	it.bi = -1
	if r.Start != nil {
		it.bi = max(it.t.blockFor(r.Start), 0) - 1
	}
}

// skippable reports whether block bi is proven irrelevant by its zone
// map for the iterator's zone interval, and no older table overlaps it.
func (it *tableIter) skippable(bi int) bool {
	if !it.r.Zoned {
		return false
	}
	h := &it.t.index[bi]
	if !h.hasZone || (h.zmin <= it.r.ZMax && h.zmax >= it.r.ZMin) {
		return false
	}
	// The block's keys lie in [lo, hi], hi inclusive, conservatively.
	lo, hi := h.firstKey, it.t.lastKey
	if bi+1 < len(it.t.index) {
		hi = it.t.index[bi+1].firstKey
	}
	for _, ot := range it.older {
		if len(ot.index) > 0 && bytes.Compare(ot.lastKey, lo) >= 0 && bytes.Compare(ot.firstKey(), hi) <= 0 {
			return false
		}
	}
	return true
}

func (it *tableIter) Next() bool {
	for !it.done && it.err == nil {
		if it.again || (it.block.data != nil && it.block.next()) {
			it.again = false
			it.cur = true
			if it.r.Start != nil && bytes.Compare(it.block.key, it.r.Start) < 0 {
				continue
			}
			if it.r.End != nil && bytes.Compare(it.block.key, it.r.End) >= 0 {
				it.done = true
				return false
			}
			return true
		}
		it.cur = false
		if it.block.corrupt {
			it.err = it.t.corruptBlock(it.bi)
			return false
		}
		next := it.bi + 1
		for ; next < len(it.t.index); next++ {
			// Stop early if the next block starts past the range end.
			if it.r.End != nil && bytes.Compare(it.t.index[next].firstKey, it.r.End) >= 0 {
				it.done = true
				return false
			}
			if !it.skippable(next) {
				break
			}
			if it.t.metrics != nil {
				atomic.AddInt64(&it.t.metrics.BlocksSkipped, 1)
			}
		}
		if next == len(it.t.index) {
			it.done = true
			return false
		}
		var data []byte
		var e *cacheEntry
		var err error
		if it.direct {
			data, err = it.t.readBlock(next, it.spare)
			it.spare = it.block.data
		} else {
			data, e, err = it.t.loadBlock(next)
		}
		if err != nil {
			it.err = err
			return false
		}
		it.t.cache.release(it.prev)
		it.prev, it.held = it.held, e
		it.bi, it.block = next, blockIter{data: data}
	}
	return false
}

func (it *tableIter) Key() []byte   { return it.block.key }
func (it *tableIter) Value() []byte { return it.block.value }
func (it *tableIter) entryKind() kind {
	return it.block.kind
}
func (it *tableIter) Err() error { return it.err }

// release gives back the blocks the iterator holds.
func (it *tableIter) release() {
	it.t.cache.release(it.held)
	it.t.cache.release(it.prev)
	it.held, it.prev = nil, nil
}

// priority ranks the iterator in its merge: later tables are newer.
func (it *tableIter) priority() int { return len(it.older) }
