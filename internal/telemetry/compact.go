package telemetry

import (
	"sapsim/internal/sim"
)

// Compaction mirrors the long-term-storage role Thanos plays above
// Prometheus in the paper's monitoring stack (Sec. 4): raw high-resolution
// samples are kept for a recent window, while older data is downsampled to
// coarse means so month-scale queries stay cheap. Both retention passes
// hold the store write lock for the whole pass and replace sample slices
// wholesale, so outstanding Select snapshots keep observing the
// pre-compaction data.

// DropBefore removes all samples strictly older than cutoff, enforcing a
// retention limit. It reports the number of samples removed. Series left
// empty are removed from the store and unlinked from every index.
func (st *Store) DropBefore(cutoff sim.Time) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	removed := 0
	var dead []*memSeries
	for _, chain := range st.series {
		for _, s := range chain {
			n := 0
			for n < len(s.samples) && s.samples[n].T < cutoff {
				n++
			}
			if n == 0 {
				continue
			}
			removed += n
			s.samples = append([]Sample(nil), s.samples[n:]...)
			if len(s.samples) == 0 {
				dead = append(dead, s)
			}
		}
	}
	for _, s := range dead {
		st.removeSeries(s)
	}
	return removed
}

// Compact downsamples every sample older than olderThan to one mean sample
// per step, keeping newer samples at full resolution. It reports the net
// reduction in sample count. Compaction preserves per-bucket means, so
// daily aggregates (the unit of every heatmap) are unchanged for
// bucket-aligned steps.
func (st *Store) Compact(olderThan sim.Time, step sim.Time) int {
	if step <= 0 {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	reduced := 0
	for _, chain := range st.series {
		for _, s := range chain {
			cut := 0
			for cut < len(s.samples) && s.samples[cut].T < olderThan {
				cut++
			}
			if cut == 0 {
				continue
			}
			old := &Series{Samples: s.samples[:cut]}
			ds := Downsample(old, step)
			if len(ds) >= cut {
				continue // nothing gained
			}
			merged := make([]Sample, 0, len(ds)+len(s.samples)-cut)
			merged = append(merged, ds...)
			merged = append(merged, s.samples[cut:]...)
			reduced += len(s.samples) - len(merged)
			s.samples = merged
		}
	}
	return reduced
}
