package bench

import (
	"time"

	"just/internal/core"
	"just/internal/kv"
)

// RunCodecs reports the storage-codec dimension layered under the
// paper's compression mechanism: the same Order workload stored under
// each SSTable block codec (none / gzip / lz4) with ingest time,
// on-disk size and spatio-temporal range latency. The lesson mirrors
// the field-compression one: gzip buys the best ratio but charges for
// it on every scan; lz4 gives up a little ratio for decompression
// cheap enough to disappear behind the simulated disk.
func (r *Runner) RunCodecs() error {
	r.header("codecs", "Storage Codecs (Order): block codec none vs gzip vs lz4")
	r.printf("%-8s %14s %14s %14s\n", "codec", "ingest (ms)", "storage (MiB)", "ST range (ms)")
	for _, codec := range []string{"none", "gzip", "lz4"} {
		e, err := r.openJUSTCodec("codecs", codec)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := loadOrders(e, variantJUST, r.Orders()); err != nil {
			e.Close()
			return err
		}
		if err := e.Cluster().Compact(); err != nil {
			e.Close()
			return err
		}
		ingest := time.Since(start)
		size := e.DiskSize()
		wins := r.defaultWindows(31)
		times := r.timeWindows(31, 24*3600*1000)
		med, err := medianDuration(len(wins), func(i int) error {
			_, err := stCount(e, "orders", wins[i], times[i][0], times[i][1])
			return err
		})
		e.Close()
		if err != nil {
			return err
		}
		r.printf("%-8s %14s %14s %14s\n", codec, ms(ingest), mb(size), ms(med))
	}
	return nil
}

// openJUSTCodec opens a JUST engine with the given block codec and the
// same store knobs as openJUST.
func (r *Runner) openJUSTCodec(tag, codec string) (*core.Engine, error) {
	dir, err := r.scratch("just-codec-" + codec + "-" + tag)
	if err != nil {
		return nil, err
	}
	return core.Open(core.Config{
		Dir: dir,
		Cluster: kv.ClusterOptions{Options: kv.Options{
			DisableWAL:         true,
			DiskThroughputMBps: diskMBps,
			BlockCacheBytes:    8 << 20,
			Codec:              codec,
		}},
	})
}
