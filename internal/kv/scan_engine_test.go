package kv

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// scanFace drives one exported face of the scan engine over a pair
// stream: on receives every pair inside the worker (an error fails the
// scan) and deliver sees each hand-off to the consumer (false stops the
// scan). It returns the pairs delivered.
type scanFace func(ctx context.Context, s Store, ranges []KeyRange, on func(key []byte) error, deliver func() bool) ([]string, error)

// viaRange scans the ranges one after the other through ScanRange, the
// serial face: every pair is a hand-off of its own, and an error from
// on stops the scan.
func viaRange(ctx context.Context, s Store, ranges []KeyRange, on func([]byte) error, deliver func() bool) ([]string, error) {
	var got []string
	for _, kr := range ranges {
		var onErr error
		stop := false
		err := ScanRange(ctx, s, kr, func(k, v []byte) bool {
			if onErr = on(k); onErr != nil {
				return false
			}
			got = append(got, string(k)+"="+string(v))
			stop = !deliver()
			return !stop
		})
		if onErr != nil {
			return got, onErr
		}
		if err != nil || stop {
			return got, err
		}
	}
	return got, nil
}

// viaCollect scans through ScanCollect with a small batching collector.
func viaCollect(ctx context.Context, s Store, ranges []KeyRange, on func([]byte) error, deliver func() bool) ([]string, error) {
	var got []string
	newTask := func() TaskCollector[[]string] {
		var batch []string
		return TaskCollector[[]string]{
			Add: func(k, v []byte) ([]string, bool, error) {
				if err := on(k); err != nil {
					return nil, false, err
				}
				batch = append(batch, string(k)+"="+string(v))
				if len(batch) < 64 {
					return nil, false, nil
				}
				full := batch
				batch = nil
				return full, true, nil
			},
			Finish: func() ([]string, bool, error) { return batch, len(batch) > 0, nil },
		}
	}
	err := ScanCollect(ctx, s, ranges, newTask, func(b []string) bool {
		got = append(got, b...)
		return deliver()
	})
	return got, err
}

// TestScanEngineFaces runs both faces of the scan engine over the same
// ranges on both Store implementations — ScanCollect through its serial
// (≤ maxSerialScanTasks tasks) and its fanned-out path, ScanRange one
// range after the other — and asserts they agree: the same pair set,
// the same first error, early stop and cancellation honored, no
// goroutine left behind.
func TestScanEngineFaces(t *testing.T) {
	const n = 3000
	key := func(i int) string { return fmt.Sprintf("%d-%05d", i%10, i) }
	digit := func(d int) KeyRange {
		return KeyRange{Start: []byte(fmt.Sprint(d)), End: []byte(fmt.Sprint(d + 1))}
	}
	plans := map[string][]KeyRange{
		"serial":   {digit(0), digit(5)},
		"parallel": {digit(0), digit(1), digit(3), digit(5), digit(6), digit(8)},
	}
	if len(plans["serial"]) > maxSerialScanTasks || len(plans["parallel"]) <= maxSerialScanTasks {
		t.Fatal("plans no longer straddle maxSerialScanTasks")
	}
	want := func(ranges []KeyRange) []string {
		var out []string
		for i := 0; i < n; i++ {
			for _, kr := range ranges {
				if kr.Contains([]byte(key(i))) {
					out = append(out, fmt.Sprintf("%s=%d", key(i), i))
				}
			}
		}
		sort.Strings(out)
		return out
	}

	lb := NewLoopback()
	testNode(t, lb, "s1", 1, NodeOptions{})
	router, err := OpenRouter(fastRetry(RouterOptions{Peers: []string{"s1"}, Transport: lb}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	var b WriteBatch
	for i := 0; i < n; i++ {
		b.Put([]byte(key(i)), []byte(fmt.Sprint(i)))
	}
	if err := router.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	stores := map[string]Store{"cluster": pipelineCluster(t, n), "router": router}
	faces := map[string]scanFace{"ScanRange": viaRange, "ScanCollect": viaCollect}

	boom := errors.New("poison pair")
	ok := func([]byte) error { return nil }
	always := func() bool { return true }
	for sname, s := range stores {
		for pname, ranges := range plans {
			for fname, face := range faces {
				t.Run(sname+"/"+pname+"/"+fname, func(t *testing.T) {
					base := runtime.NumGoroutine()

					got, err := face(bg, s, ranges, ok, always)
					if err != nil {
						t.Fatal(err)
					}
					sort.Strings(got)
					if w := want(ranges); !reflect.DeepEqual(got, w) {
						t.Fatalf("full scan delivered %d pairs, want %d", len(got), len(w))
					}

					calls := 0
					if _, err := face(bg, s, ranges, ok, func() bool { calls++; return calls < 2 }); err != nil {
						t.Fatalf("early stop: %v", err)
					}
					if calls != 2 {
						t.Fatalf("emit ran %d times after returning false on its 2nd call", calls)
					}

					// Cancel from inside the first hand-off, then hold it long
					// enough for the context's AfterFunc to flip the engine's
					// flag: at least one task (serial) or batch (fanned out)
					// is still outstanding, so the scan must end canceled.
					ctx, cancel := context.WithCancel(bg)
					first := true
					got, err = face(ctx, s, ranges, ok, func() bool {
						if first {
							first = false
							cancel()
							time.Sleep(20 * time.Millisecond)
						}
						return true
					})
					cancel()
					// Over the wire an abandoned request comes back as
					// CodeDeadline whatever ended it, so a router worker may
					// report DeadlineExceeded before the engine's own watcher
					// records Canceled; either way it is a context error.
					if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
						t.Fatalf("cancel mid-scan: err = %v, want a context error", err)
					}
					if len(got) >= len(want(ranges)) {
						t.Fatal("cancel mid-scan still delivered every pair")
					}

					_, err = face(bg, s, ranges, func(k []byte) error {
						if strings.HasSuffix(string(k), "-00500") {
							return boom
						}
						return nil
					}, always)
					if !errors.Is(err, boom) {
						t.Fatalf("worker error: err = %v, want %v", err, boom)
					}

					waitGoroutines(t, base)
				})
			}
		}
	}
}
