package compress

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// referenceTable and appendLZ4Reference are the block encoder as it was
// before its table was cleared per input: one int32 table, never
// cleared, storing base+i for position i, with base advanced past each
// input so that an entry left by an earlier input reads as position 0.
// The encoder must produce the same bytes as this one for every input:
// SSTables, WAL records and compressed fields written by either are
// then identical.
type referenceTable struct {
	pos  [hashSize]int32
	base int32
}

func appendLZ4Reference(dst, src []byte, ht *referenceTable) []byte {
	n := len(src)
	if int64(ht.base)+int64(n) > math.MaxInt32 {
		*ht = referenceTable{}
	}
	base := ht.base
	ht.base += int32(n)
	anchor := 0
	if n >= matchStartFloor {
		limit := n - matchStartFloor
		matchLimit := n - lastLiterals
		i := 0
		for i <= limit {
			u := le32(src[i:])
			h := lz4Hash(u)
			cand := max(int(ht.pos[h]-base), 0)
			ht.pos[h] = base + int32(i)
			if cand >= i || i-cand > maxOffset || le32(src[cand:]) != u {
				i++
				continue
			}
			mlen := minMatch + matchLen(src, cand+minMatch, i+minMatch, matchLimit)
			dst = appendSequence(dst, src[anchor:i], i-cand, mlen)
			if i+2 <= limit {
				ht.pos[lz4Hash(le32(src[i+1:]))] = base + int32(i+1)
				ht.pos[lz4Hash(le32(src[i+2:]))] = base + int32(i+2)
			}
			i += mlen
			anchor = i
		}
	}
	return appendSequence(dst, src[anchor:], 0, 0)
}

// referenceInputs returns the inputs TestLZ4MatchesReference encodes:
// SSTable-sized blocks of order-like rows, records from 512 B to past
// the 64 KiB switch between the table widths, runs, text over a small
// alphabet and random bytes.
func referenceInputs() [][]byte {
	rng := rand.New(rand.NewSource(57))
	rows := func(n int) []byte {
		var b []byte
		for i := rng.Intn(1000); len(b) < n; i++ {
			b = append(b, 1, byte(i), byte(i>>8), 0, 2, byte(rng.Intn(100)))
			b = append(b, "order-"...)
			b = append(b, byte('0'+i%10), byte('0'+i%7), '|', byte(rng.Intn(256)), byte(rng.Intn(16)))
		}
		return b[:n]
	}
	alphabet := func(n int, letters string) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return b
	}
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var in [][]byte
	for i := 0; i < 200; i++ {
		in = append(in, rows(4096-rng.Intn(64)))
	}
	for _, n := range []int{512, 1000, 4096, 16 << 10, 65535, 65536, 65537, 100 << 10, 300 << 10} {
		in = append(in, rows(n), alphabet(n, "abcde"), random(n),
			bytes.Repeat([]byte{'x'}, n), bytes.Repeat([]byte("run-"), n/4))
	}
	// A long input whose last 64 KiB repeat its first: matches at the
	// maximum offset and past it.
	head := rows(80 << 10)
	in = append(in, append(head, head...))
	for n := 0; n < 40; n++ {
		in = append(in, rows(n), alphabet(n, "ab"))
	}
	return in
}

// TestLZ4MatchesReference: the encoder produces, byte for byte, what the
// never-cleared int32 table produced, on every input, with one pooled
// table reused across inputs of both widths on each side.
func TestLZ4MatchesReference(t *testing.T) {
	ref := new(referenceTable)
	for i, src := range referenceInputs() {
		got, want := CompressLZ4(nil, src), appendLZ4Reference(nil, src, ref)
		if !bytes.Equal(got, want) {
			t.Fatalf("input %d (%d bytes): encodes to %d bytes, the reference to %d", i, len(src), len(got), len(want))
		}
	}
}

func FuzzLZ4MatchesReference(f *testing.F) {
	for _, src := range referenceInputs()[195:] {
		if len(src) <= 4096 {
			f.Add(src)
		}
	}
	ref := new(referenceTable)
	f.Fuzz(func(t *testing.T, src []byte) {
		got, want := CompressLZ4(nil, src), appendLZ4Reference(nil, src, ref)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: encodes to %d bytes, the reference to %d", len(src), len(got), len(want))
		}
	})
}
