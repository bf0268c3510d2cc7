package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"testing"
	"time"
)

// zonePruningFixture builds the raw columnar block the bench gate runs
// against: the zone-pruning workload's shape — near-regular timestamps,
// bounded-jitter coordinates and low-cardinality rider strings — laid
// out as plain int64/len-prefixed columns.
func zonePruningFixture(n int) (raw []byte, ts, lat, lon []int64, riders []string) {
	ts = make([]int64, n)
	lat = make([]int64, n)
	lon = make([]int64, n)
	riders = make([]string, n)
	for i := 0; i < n; i++ {
		ts[i] = 1700000000000 + int64(i)*1000 + int64(i%7)
		lat[i] = 399042137 + int64((i*13)%2000) - 1000
		lon[i] = 1164073921 + int64((i*17)%2000) - 1000
		riders[i] = fmt.Sprintf("rider-%04d", i%500)
	}
	for i := 0; i < n; i++ {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(ts[i]))
	}
	for i := 0; i < n; i++ {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(lat[i]))
		raw = binary.LittleEndian.AppendUint64(raw, uint64(lon[i]))
	}
	for i := 0; i < n; i++ {
		raw = append(raw, byte(len(riders[i])))
		raw = append(raw, riders[i]...)
	}
	return raw, ts, lat, lon, riders
}

func benchNanos(t *testing.T, iters int, fn func()) int64 {
	t.Helper()
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start).Nanoseconds() / int64(iters)
}

// TestGateLZ4BeatsGzip is the CI bench gate for the storage codec stack
// on the zone-pruning fixture:
//
//  1. throughput — lz4 block decompression must be at least 2x faster
//     than gzip on the same block;
//  2. ratio — the shipped stack (typed encodings under lz4, the layout
//     columnar blocks actually use) must compress no more than 15%
//     worse than gzip over the raw block.
func TestGateLZ4BeatsGzip(t *testing.T) {
	if testing.Short() {
		t.Skip("bench gate skipped in -short")
	}
	raw, ts, lat, lon, riders := zonePruningFixture(4000)

	var gz bytes.Buffer
	if err := CompressGzip(&gz, raw); err != nil {
		t.Fatal(err)
	}
	lzRaw := CompressLZ4(nil, raw)

	var typed []byte
	typed = AppendDeltaOfDelta(typed, ts)
	typed = AppendDelta(typed, lat)
	typed = AppendDelta(typed, lon)
	typed = EncodeStrings(typed, riders)
	lzTyped := CompressLZ4(nil, typed)

	t.Logf("raw=%d gzip=%d lz4=%d typed+lz4=%d", len(raw), gz.Len(), len(lzRaw), len(lzTyped))
	if float64(len(lzTyped)) > float64(gz.Len())*1.15 {
		t.Fatalf("codec stack ratio gate: typed+lz4=%d vs gzip=%d (>15%% worse)", len(lzTyped), gz.Len())
	}

	// The codecs alternate over short rounds and each is judged by its
	// fastest round. A host loaded by the rest of the suite then slows
	// some rounds of both codecs, not the whole of one codec's timing,
	// which back-to-back loops let it do.
	const rounds, iters = 10, 30
	dst := make([]byte, len(raw))
	gzNanos, lzNanos := int64(math.MaxInt64), int64(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		gzNanos = min(gzNanos, benchNanos(t, iters, func() {
			if err := DecompressGzipLen(dst, gz.Bytes()); err != nil {
				t.Fatal(err)
			}
		}))
		lzNanos = min(lzNanos, benchNanos(t, iters, func() {
			if err := DecompressLZ4(dst, lzRaw); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("fastest-round decompress ns/op: gzip=%d lz4=%d (%.1fx)", gzNanos, lzNanos, float64(gzNanos)/float64(lzNanos))
	if lzNanos*2 > gzNanos {
		t.Fatalf("throughput gate: lz4=%dns/op not >= 2x faster than gzip=%dns/op", lzNanos, gzNanos)
	}
}

// TestLZ4OutputPinned pins the block encoder's output on the gate
// fixture, raw and under the typed encodings: a change to match finding
// or extension that alters the bytes, and with them the benchmark's
// disk_bytes_per_row, fails here rather than drifting unnoticed. The
// encoder gets a fresh match table; TestLZ4PooledMatchesFresh holds the
// pooled tables to the same output.
func TestLZ4OutputPinned(t *testing.T) {
	raw, ts, lat, lon, riders := zonePruningFixture(4000)
	var typed []byte
	typed = AppendDeltaOfDelta(typed, ts)
	typed = AppendDelta(typed, lat)
	typed = AppendDelta(typed, lon)
	typed = EncodeStrings(typed, riders)
	for _, c := range []struct {
		name string
		src  []byte
		n    int
		crc  uint32
	}{
		{"raw", raw, 38399, 0xc0c53ee4},
		{"typed", typed, 3123, 0x7ef73713},
	} {
		out := appendLZ4(nil, c.src, new(matchTable))
		if len(out) != c.n || crc32.ChecksumIEEE(out) != c.crc {
			t.Errorf("%s: lz4 output len=%d crc=%#08x, pinned len=%d crc=%#08x", c.name, len(out), crc32.ChecksumIEEE(out), c.n, c.crc)
		}
	}
}
