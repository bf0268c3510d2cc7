package kv

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func newTestCluster(t *testing.T, opts ClusterOptions) *Cluster {
	t.Helper()
	c, err := OpenCluster(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClusterScanRangeOrdered(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{})
	for i := 0; i < 1000; i++ {
		put(c, []byte(fmt.Sprintf("%c%04d", 'a'+i%26, i)), []byte("v"))
	}
	c.Flush()
	var prev []byte
	n := 0
	err := ScanRange(bg, c, KeyRange{}, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("ScanRange out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("scanned %d, want 1000", n)
	}
}

// TestClusterScanRangesParallel scans more ranges than run inline, so
// the tasks fan out over the scan workers.
func TestClusterScanRangesParallel(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{})
	want := map[string]bool{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("%d-%04d", i%10, i)
		put(c, []byte(k), []byte("v"))
		if strings.Contains("02479", k[:1]) {
			want[k] = true
		}
	}
	c.Flush()
	var ranges []KeyRange
	for _, d := range "02479" {
		ranges = append(ranges, KeyRange{Start: []byte{byte(d)}, End: []byte{byte(d) + 1}})
	}
	if len(ranges) <= maxSerialScanTasks {
		t.Fatal("plan no longer exceeds maxSerialScanTasks")
	}
	got := map[string]bool{}
	err := scanPairs(bg, c, ranges, func(k, v []byte) bool {
		got[string(k)] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing key %q", k)
		}
	}
}

func TestClusterScanEarlyStop(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{})
	for i := 0; i < 5000; i++ {
		put(c, []byte(fmt.Sprintf("k-%05d", i)), []byte("v"))
	}
	c.Flush()
	n := 0
	err := scanPairs(bg, c, []KeyRange{{}}, func(k, v []byte) bool {
		n++
		return n < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("emit called %d times, want 10", n)
	}
}

func TestClusterConcurrentReadWrite(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{
		Options: Options{MemtableBytes: 16 << 10},
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				put(c, []byte(fmt.Sprintf("w%d-%04d", w, i)), []byte("v"))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			ScanRange(bg, c, KeyRange{}, func(k, v []byte) bool { return true })
		}
	}()
	wg.Wait()
	n := 0
	ScanRange(bg, c, KeyRange{}, func(k, v []byte) bool { n++; return true })
	if n != 2000 {
		t.Fatalf("final count = %d, want 2000", n)
	}
}

func TestClusterMetrics(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{})
	for i := 0; i < 100; i++ {
		put(c, []byte(fmt.Sprintf("k-%03d", i)), bytes.Repeat([]byte("v"), 100))
	}
	c.Flush()
	ScanRange(bg, c, KeyRange{}, func(k, v []byte) bool { return true })
	m := c.Metrics()
	if m.BytesWritten == 0 {
		t.Error("BytesWritten should be > 0")
	}
	if m.Flushes == 0 {
		t.Error("Flushes should be > 0")
	}
	if m.BlocksRead+m.BlockCacheHits == 0 {
		t.Error("scan should have touched blocks")
	}
}

func TestClusterDiskSizeCompression(t *testing.T) {
	// Highly compressible values should occupy much less disk with
	// compression enabled — the substrate behaviour behind Fig. 10.
	load := func(codec string) int64 {
		dir := t.TempDir()
		c, err := OpenCluster(dir, ClusterOptions{
			Options: Options{Codec: codec, DisableWAL: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		val := bytes.Repeat([]byte("abcdefgh"), 128) // 1 KiB compressible
		for i := 0; i < 2000; i++ {
			put(c, []byte(fmt.Sprintf("k-%06d", i)), val)
		}
		c.Flush()
		return c.DiskSize()
	}
	plain := load("none")
	compressed := load("gzip")
	if compressed >= plain/2 {
		t.Fatalf("compressed %d should be far below plain %d", compressed, plain)
	}
}

func BenchmarkClusterPut(b *testing.B) {
	c, err := OpenCluster(b.TempDir(), ClusterOptions{Options: Options{DisableWAL: true}})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	val := bytes.Repeat([]byte("v"), 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put(c, []byte(fmt.Sprintf("k-%09d", i)), val)
	}
}

func BenchmarkClusterScan(b *testing.B) {
	c, err := OpenCluster(b.TempDir(), ClusterOptions{Options: Options{DisableWAL: true}})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 100000; i++ {
		put(c, []byte(fmt.Sprintf("k-%09d", i)), val)
	}
	c.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		ScanRange(bg, c, KeyRange{Start: []byte("k-000050000"), End: []byte("k-000051000")},
			func(k, v []byte) bool { n++; return true })
		if n != 1000 {
			b.Fatalf("scan = %d", n)
		}
	}
}
