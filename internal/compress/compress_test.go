package compress

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// corpus returns inputs spanning the shapes the engine compresses:
// empty, tiny, runs, structured repetition (encoded rows), random
// (incompressible), and delta-varint-like streams.
func corpus() [][]byte {
	rng := rand.New(rand.NewSource(7))
	var out [][]byte
	out = append(out, nil, []byte{}, []byte("a"), []byte("abcd"), []byte("abcdefghijklm"))
	out = append(out, bytes.Repeat([]byte{0}, 4096))
	out = append(out, bytes.Repeat([]byte("ab"), 3000))
	out = append(out, []byte(strings.Repeat("rider-0423|order|116.397,39.916|", 200)))
	rnd := make([]byte, 8192)
	rng.Read(rnd)
	out = append(out, rnd)
	// Structured rows: varint-ish small deltas with repeated string tags.
	var rows []byte
	for i := 0; i < 400; i++ {
		rows = append(rows, byte(i), byte(i>>3), 1, 2)
		rows = append(rows, []byte("rider-")...)
		rows = append(rows, byte('0'+i%10), byte('0'+i%7))
		rows = append(rows, byte(rng.Intn(256)))
	}
	out = append(out, rows)
	// Sizes around block boundaries and length-extension boundaries.
	for _, n := range []int{15, 16, 255, 256, 270, 4095, 4096, 4097, 70000} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i / 7)
		}
		out = append(out, b)
	}
	return out
}

func TestLZ4RoundTrip(t *testing.T) {
	for i, src := range corpus() {
		enc := CompressLZ4(nil, src)
		dst := make([]byte, len(src))
		if err := DecompressLZ4(dst, enc); err != nil {
			t.Fatalf("case %d (len %d): decompress: %v", i, len(src), err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("case %d (len %d): round trip mismatch", i, len(src))
		}
	}
}

func TestLZ4CompressesRepetitiveData(t *testing.T) {
	src := bytes.Repeat([]byte("the quick brown fox "), 200)
	enc := CompressLZ4(nil, src)
	if len(enc) >= len(src)/4 {
		t.Fatalf("lz4 on 200x-repeated text: %d -> %d, expected >4x", len(src), len(enc))
	}
}

func TestLZ4WrongLengthErrors(t *testing.T) {
	src := bytes.Repeat([]byte("abc"), 100)
	enc := CompressLZ4(nil, src)
	for _, n := range []int{0, 1, len(src) - 1, len(src) + 1, len(src) * 2} {
		if err := DecompressLZ4(make([]byte, n), enc); err == nil {
			t.Fatalf("decompress into wrong length %d: want error", n)
		}
	}
}

func TestLZ4FrameRoundTrip(t *testing.T) {
	for i, src := range corpus() {
		frame := CompressLZ4Frame(nil, src)
		if !IsLZ4Frame(frame) {
			t.Fatalf("case %d: frame magic not recognized", i)
		}
		got, err := DecompressLZ4Frame(frame)
		if err != nil {
			t.Fatalf("case %d: unframe: %v", i, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("case %d: frame round trip mismatch", i)
		}
		var buf bytes.Buffer
		buf.WriteString("prefix")
		if err := DecompressLZ4FrameTo(&buf, frame); err != nil {
			t.Fatalf("case %d: unframe to buffer: %v", i, err)
		}
		if !bytes.Equal(buf.Bytes(), append([]byte("prefix"), src...)) {
			t.Fatalf("case %d: buffered unframe mismatch", i)
		}
	}
}

func TestLZ4FrameDetectsCorruption(t *testing.T) {
	src := bytes.Repeat([]byte("courier gps fix "), 64)
	frame := CompressLZ4Frame(nil, src)
	for pos := 0; pos < len(frame); pos += 3 {
		bad := append([]byte(nil), frame...)
		bad[pos] ^= 0x41
		if got, err := DecompressLZ4Frame(bad); err == nil && bytes.Equal(got, src) {
			// A flip that still decodes to the same bytes is fine (it
			// landed in redundant coding space); silently decoding to
			// *different* bytes is the failure.
			continue
		} else if err == nil {
			t.Fatalf("flip at %d: decoded corrupt frame to different bytes without error", pos)
		}
	}
}

func TestGzipZlibRoundTrip(t *testing.T) {
	for i, src := range corpus() {
		var enc bytes.Buffer
		if err := CompressGzip(&enc, src); err != nil {
			t.Fatalf("case %d: gzip: %v", i, err)
		}
		var dec bytes.Buffer
		if err := DecompressGzipTo(&dec, enc.Bytes()); err != nil {
			t.Fatalf("case %d: gunzip: %v", i, err)
		}
		if !bytes.Equal(dec.Bytes(), src) {
			t.Fatalf("case %d: gzip round trip mismatch", i)
		}
		exact := make([]byte, len(src))
		if err := DecompressGzipLen(exact, enc.Bytes()); err != nil {
			t.Fatalf("case %d: gunzip exact: %v", i, err)
		}
		if !bytes.Equal(exact, src) {
			t.Fatalf("case %d: gzip exact-length mismatch", i)
		}

		var zenc bytes.Buffer
		if err := CompressZlib(&zenc, src); err != nil {
			t.Fatalf("case %d: zlib: %v", i, err)
		}
		var zdec bytes.Buffer
		if err := DecompressZlibTo(&zdec, zenc.Bytes()); err != nil {
			t.Fatalf("case %d: unzlib: %v", i, err)
		}
		if !bytes.Equal(zdec.Bytes(), src) {
			t.Fatalf("case %d: zlib round trip mismatch", i)
		}
	}
}

func TestGzipLenRejectsShortLength(t *testing.T) {
	src := bytes.Repeat([]byte("x"), 1000)
	var enc bytes.Buffer
	if err := CompressGzip(&enc, src); err != nil {
		t.Fatal(err)
	}
	if err := DecompressGzipLen(make([]byte, 500), enc.Bytes()); err == nil {
		t.Fatal("gzip stream longer than dst: want error")
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{},
		{0},
		{42},
		{-7, -7, -7},
		{1000, 2000, 3000, 4000},          // fixed cadence
		{0, 1 << 40, -(1 << 40), 1, 2, 3}, // wild swings
		{1754600000000, 1754600001000, 1754600002100, 1754600002900}, // ms timestamps
	}
	for i, vals := range cases {
		enc := AppendDelta(nil, vals)
		got, rest, err := DecodeDelta(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("case %d: delta decode err=%v rest=%d", i, err, len(rest))
		}
		if len(got) != len(vals) {
			t.Fatalf("case %d: delta len %d != %d", i, len(got), len(vals))
		}
		for j := range vals {
			if got[j] != vals[j] {
				t.Fatalf("case %d: delta[%d] = %d want %d", i, j, got[j], vals[j])
			}
		}
		enc2 := AppendDeltaOfDelta(nil, vals)
		got2, rest2, err := DecodeDeltaOfDelta(enc2)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("case %d: dod decode err=%v rest=%d", i, err, len(rest2))
		}
		for j := range vals {
			if got2[j] != vals[j] {
				t.Fatalf("case %d: dod[%d] = %d want %d", i, j, got2[j], vals[j])
			}
		}
	}
}

func TestDeltaOfDeltaFixedCadenceIsTiny(t *testing.T) {
	vals := make([]int64, 300)
	for i := range vals {
		vals[i] = 1754600000000 + int64(i)*1000 // perfect 1 Hz cadence
	}
	enc := AppendDeltaOfDelta(nil, vals)
	// First value ~6 varint bytes, second delta 2, then one zero byte
	// per sample plus the count.
	if len(enc) > len(vals)+16 {
		t.Fatalf("dod on fixed cadence: %d bytes for %d samples", len(enc), len(vals))
	}
}

func TestDictEncodeDecode(t *testing.T) {
	cases := [][]string{
		{},
		{"a"},
		{"rider-1", "rider-2", "rider-1", "rider-1", "rider-2"},
		{"", "", "x", ""},
		{"solo-values", "every", "one", "distinct"},
	}
	for i, vals := range cases {
		enc := EncodeStrings(nil, vals)
		got, rest, err := DecodeStrings(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("case %d: err=%v rest=%d", i, err, len(rest))
		}
		if len(got) != len(vals) {
			t.Fatalf("case %d: len %d != %d", i, len(got), len(vals))
		}
		for j := range vals {
			if got[j] != vals[j] {
				t.Fatalf("case %d: [%d]=%q want %q", i, j, got[j], vals[j])
			}
		}
	}
}

func TestDictEncodingShrinksLowCardinality(t *testing.T) {
	vals := make([]string, 1000)
	for i := range vals {
		vals[i] = []string{"created", "assigned", "picked-up", "delivered"}[i%4]
	}
	enc := EncodeStrings(nil, vals)
	var raw int
	for _, v := range vals {
		raw += len(v) + 1
	}
	if len(enc) >= raw/4 {
		t.Fatalf("dict on 4-distinct column: %d vs %d raw, expected >4x", len(enc), raw)
	}
}

func TestDictIntern(t *testing.T) {
	var d Dict
	a := d.Intern([]byte("rider-0423"))
	b := d.Intern([]byte("rider-0423"))
	if a != b || d.Len() != 1 {
		t.Fatalf("intern: equal inputs must intern to one entry (len=%d)", d.Len())
	}
	d.Intern([]byte("rider-0007"))
	if d.Len() != 2 {
		t.Fatalf("intern: distinct inputs, len=%d want 2", d.Len())
	}
}

func TestStatsCount(t *testing.T) {
	before := Stats()["lz4"]
	src := bytes.Repeat([]byte("metric"), 500)
	enc := CompressLZ4(nil, src)
	dst := make([]byte, len(src))
	if err := DecompressLZ4(dst, enc); err != nil {
		t.Fatal(err)
	}
	after := Stats()["lz4"]
	if after.CompressOps <= before.CompressOps || after.DecompressOps <= before.DecompressOps {
		t.Fatal("codec ops not counted")
	}
	if after.CompressBytesIn-before.CompressBytesIn < int64(len(src)) {
		t.Fatal("compress bytes-in not counted")
	}
	if after.Ratio <= 0 || after.Ratio > 1.5 {
		t.Fatalf("implausible lz4 ratio %v", after.Ratio)
	}
}

func BenchmarkLZ4Compress4K(b *testing.B) {
	src := blockFixture(4096)
	b.SetBytes(int64(len(src)))
	var enc []byte
	for i := 0; i < b.N; i++ {
		enc = CompressLZ4(enc[:0], src)
	}
}

func BenchmarkLZ4Decompress4K(b *testing.B) {
	src := blockFixture(4096)
	enc := CompressLZ4(nil, src)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecompressLZ4(dst, enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGzipDecompress4K(b *testing.B) {
	src := blockFixture(4096)
	var enc bytes.Buffer
	if err := CompressGzip(&enc, src); err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecompressGzipLen(dst, enc.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// blockFixture builds n bytes shaped like an SSTable data block of
// encoded order rows: small varint-ish numeric fields plus repeated
// low-cardinality strings.
func blockFixture(n int) []byte {
	rng := rand.New(rand.NewSource(11))
	var b []byte
	i := 0
	for len(b) < n {
		b = append(b, byte(i), byte(i>>8), 2, byte(rng.Intn(100)))
		b = append(b, []byte("rider-")...)
		b = append(b, byte('0'+i%10), byte('0'+i%5), '|')
		b = append(b, byte(rng.Intn(256)), byte(rng.Intn(64)))
		i++
	}
	return b[:n]
}

// TestLZ4PooledMatchesFresh: the pooled match table, reused across
// inputs, must encode every block exactly as a fresh table does. Blocks
// over a 5-letter alphabet repeat 4-byte sequences across inputs, so a
// position left by an earlier input would land on a real match here.
func TestLZ4PooledMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 2000; i++ {
		src := make([]byte, rng.Intn(4096))
		for j := range src {
			src[j] = "abcde"[rng.Intn(5)]
		}
		if pooled, fresh := CompressLZ4(nil, src), appendLZ4(nil, src, new(matchTable)); !bytes.Equal(pooled, fresh) {
			t.Fatalf("block %d (%d bytes): pooled table encodes %d bytes, fresh table %d", i, len(src), len(pooled), len(fresh))
		}
	}
}
