// Package compress owns every storage codec in the engine: an LZ4-style
// byte-oriented block codec built from scratch on the stdlib, pooled
// gzip/zlib codecs (the legacy formats), a self-describing frame for
// values whose raw length is not stored elsewhere, and the lightweight
// typed encodings (varint delta / delta-of-delta integers, string
// dictionaries) that sit under the general-purpose codecs for columnar
// data. All entry points record per-codec metrics (bytes in/out, CPU
// time) that the server surfaces on /api/v1/metrics.
package compress

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
	"sync"
	"time"
)

// ErrCorruptBlock reports an undecodable LZ4 block. The decoder is
// bounds-checked end to end: arbitrary input yields this error, never a
// panic or an out-of-range read.
var ErrCorruptBlock = errors.New("compress: corrupt lz4 block")

// LZ4 block format (the reference byte stream): a sequence of
//
//	[token u8] [litLen ext 0xFF*] [literals] [offset u16le] [matchLen ext 0xFF*]
//
// where the token's high nibble is the literal count (15 = more length
// bytes follow, each 0xFF adding 255) and the low nibble is the match
// length minus minMatch. The final sequence is literals-only: the
// stream simply ends after its literal bytes. Matches copy from the
// already-decoded output at distance offset (1..65535) and may
// self-overlap, which is how runs are encoded.
const (
	minMatch  = 4
	maxOffset = 65535

	// Matches never start within the last 12 bytes of the input and
	// never extend into the last 5, mirroring the reference format's
	// end-of-block rules: the tail is always literal bytes.
	matchStartFloor = 12
	lastLiterals    = 5

	// hashLog sizes the match-finder table: 2^13 slots covers the 4 KiB
	// SSTable block size many times over while the table itself (16 KiB
	// of uint16 positions) stays cache-resident.
	hashLog  = 13
	hashSize = 1 << hashLog

	// maxBlockLen bounds the raw length the decoder will reconstruct;
	// also the overflow guard when summing 0xFF length extensions.
	maxBlockLen = 1 << 30
)

// matchTable is the encoder's hash table of candidate positions, cleared
// for each input so that an empty slot reads as position 0. An input
// under 64 KiB stores its positions as uint16, as reference LZ4 does:
// half the bytes to clear and to keep in cache. A longer one uses int32.
type matchTable struct {
	small [hashSize]uint16
	large [hashSize]int32
}

var matchTablePool = sync.Pool{New: func() any { return new(matchTable) }}

func lz4Hash(u uint32) uint32 { return (u * 2654435761) >> (32 - hashLog) }

func le32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// CompressLZ4 appends the LZ4-block encoding of src to dst and returns
// the extended slice. dst first grows by the worst case, len(src) +
// len(src)/255 + 16 bytes, as reference LZ4 asks of callers. Callers that
// only want a win compare lengths and keep the raw bytes otherwise.
func CompressLZ4(dst, src []byte) []byte {
	start := time.Now()
	before := len(dst)
	dst = slices.Grow(dst, len(src)+len(src)/255+16)
	ht := matchTablePool.Get().(*matchTable)
	dst = appendLZ4(dst, src, ht)
	matchTablePool.Put(ht)
	lz4Counters.addCompress(len(src), len(dst)-before, time.Since(start))
	return dst
}

func appendLZ4(dst, src []byte, ht *matchTable) []byte {
	if len(src) < 1<<16 {
		clear(ht.small[:])
		return encodeLZ4(dst, src, &ht.small)
	}
	clear(ht.large[:])
	return encodeLZ4(dst, src, &ht.large)
}

func encodeLZ4[P uint16 | int32](dst, src []byte, pos *[hashSize]P) []byte {
	n := len(src)
	anchor := 0
	if n >= matchStartFloor {
		limit := n - matchStartFloor // last position a match may start at
		matchLimit := n - lastLiterals
		i := 0
		for i <= limit {
			u := le32(src[i:])
			h := lz4Hash(u)
			cand := int(pos[h])
			pos[h] = P(i)
			if cand >= i || i-cand > maxOffset || le32(src[cand:]) != u {
				i++
				continue
			}
			mlen := minMatch + matchLen(src, cand+minMatch, i+minMatch, matchLimit)
			dst = appendSequence(dst, src[anchor:i], i-cand, mlen)
			// Seed positions inside the match so nearby repeats remain
			// findable after the jump.
			if i+2 <= limit {
				pos[lz4Hash(le32(src[i+1:]))] = P(i + 1)
				pos[lz4Hash(le32(src[i+2:]))] = P(i + 2)
			}
			i += mlen
			anchor = i
		}
	}
	// Final literals-only sequence (always present, even when empty, so
	// a non-empty block never ends on a match).
	return appendSequence(dst, src[anchor:], 0, 0)
}

// matchLen counts the bytes at src[b:] that equal those at src[a:]
// (a < b), stopping at limit: eight at a time, where the XOR's trailing
// zero bits locate the first difference, then byte by byte for the tail.
func matchLen(src []byte, a, b, limit int) int {
	n := 0
	for b+n+8 <= limit {
		if x := binary.LittleEndian.Uint64(src[b+n:]) ^ binary.LittleEndian.Uint64(src[a+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for b+n < limit && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// appendSequence emits one [token][literals][offset][matchlen] sequence;
// mlen == 0 means the final literals-only sequence.
func appendSequence(dst, lit []byte, offset, mlen int) []byte {
	litLen := len(lit)
	var token byte
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	if mlen > 0 {
		if m := mlen - minMatch; m >= 15 {
			token |= 15
		} else {
			token |= byte(m)
		}
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = appendLenExt(dst, litLen-15)
	}
	dst = append(dst, lit...)
	if mlen == 0 {
		return dst
	}
	dst = append(dst, byte(offset), byte(offset>>8))
	if m := mlen - minMatch; m >= 15 {
		dst = appendLenExt(dst, m-15)
	}
	return dst
}

func appendLenExt(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// readLenExt accumulates 0xFF length-extension bytes starting at src[s],
// guarding against overflow and truncation.
func readLenExt(src []byte, s, base int) (v, next int, ok bool) {
	v = base
	for {
		if s >= len(src) {
			return 0, 0, false
		}
		b := src[s]
		s++
		v += int(b)
		if v > maxBlockLen {
			return 0, 0, false
		}
		if b != 255 {
			return v, s, true
		}
	}
}

// DecompressLZ4 decodes an LZ4 block into dst, which must be sized to
// the exact raw length (stored out of band, e.g. in the SSTable block
// index or the codec frame). It is safe on arbitrary input: every read
// and write is bounds-checked and malformed streams return
// ErrCorruptBlock.
func DecompressLZ4(dst, src []byte) error {
	start := time.Now()
	err := decompressLZ4(dst, src)
	if err == nil {
		lz4Counters.addDecompress(len(src), len(dst), time.Since(start))
	}
	return err
}

func decompressLZ4(dst, src []byte) error {
	d, s := 0, 0
	for s < len(src) {
		token := src[s]
		s++
		litLen := int(token >> 4)
		if litLen == 15 {
			var ok bool
			if litLen, s, ok = readLenExt(src, s, litLen); !ok {
				return ErrCorruptBlock
			}
		}
		if litLen > len(src)-s || litLen > len(dst)-d {
			return ErrCorruptBlock
		}
		copy(dst[d:], src[s:s+litLen])
		d += litLen
		s += litLen
		if s == len(src) {
			// Final literals-only sequence: the stream must account for
			// exactly the advertised raw length.
			if d != len(dst) {
				return ErrCorruptBlock
			}
			return nil
		}
		if len(src)-s < 2 {
			return ErrCorruptBlock
		}
		offset := int(src[s]) | int(src[s+1])<<8
		s += 2
		if offset == 0 || offset > d {
			return ErrCorruptBlock
		}
		mlen := int(token & 15)
		if mlen == 15 {
			var ok bool
			if mlen, s, ok = readLenExt(src, s, mlen); !ok {
				return ErrCorruptBlock
			}
		}
		mlen += minMatch
		if mlen > len(dst)-d {
			return ErrCorruptBlock
		}
		if ref := d - offset; offset >= mlen {
			copy(dst[d:d+mlen], dst[ref:ref+mlen])
			d += mlen
		} else {
			// Overlapping match (offset < length): byte-at-a-time copy
			// reproduces the run semantics.
			for k := 0; k < mlen; k++ {
				dst[d] = dst[ref]
				d++
				ref++
			}
		}
	}
	if d != len(dst) {
		return ErrCorruptBlock
	}
	return nil
}
