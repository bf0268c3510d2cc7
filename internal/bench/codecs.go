package bench

import "just/internal/workload"

// RunCodecs reports the storage-codec dimension layered under the
// paper's compression mechanism: the same Order workload stored under
// each SSTable block codec (none / gzip / lz4) with ingest time
// (compaction included), on-disk size and spatio-temporal range latency.
// The lesson mirrors the field-compression one: gzip buys the best ratio
// but charges for it on every scan; lz4 gives up a little ratio for
// decompression cheap enough to disappear behind the modeled disk.
func (r *Runner) RunCodecs() error {
	ds := orderSet(r.Orders())
	for _, codec := range []string{"none", "gzip", "lz4"} {
		e, err := r.openJUST(variantJUST, codec)
		if err != nil {
			return err
		}
		err = r.measure(codec, "JUST", "ingest", justMeter(e), 1, func(int) (int, error) {
			if err := ds.load(e, variantJUST); err != nil {
				return 0, err
			}
			return len(ds.recs), e.Cluster().Compact()
		})
		if err == nil {
			r.value(codec, "JUST", "storage_mib", mib(e.DiskSize()))
			err = r.queryRow(codec, ds.tbl, []namedEngine{{"JUST", e}}, nil, r.stQuery(31, 3, 31, workload.Day))
		}
		e.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
