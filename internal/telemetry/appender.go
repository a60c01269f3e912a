package telemetry

import (
	"errors"

	"sapsim/internal/sim"
)

// pendingSample is one buffered write, pre-hashed at Append time so Commit
// only applies.
type pendingSample struct {
	metric string
	labels Labels
	hash   uint64
	t      sim.Time
	v      float64
}

// Appender batches writes to the store, Telegraf-style: callers buffer a
// sampling sweep (or a whole scrape) and Commit applies it under one lock
// acquisition, instead of one per sample. An Appender is not safe for
// concurrent use; give each writer goroutine its own.
type Appender struct {
	st  *Store
	buf []pendingSample
}

// Appender returns a new batch writer bound to the store.
func (st *Store) Appender() *Appender {
	return &Appender{st: st}
}

// Append buffers one sample. Nothing is visible to readers until Commit.
func (a *Appender) Append(metric string, labels Labels, t sim.Time, v float64) {
	a.buf = append(a.buf, pendingSample{metric: metric, labels: labels, hash: hashSeries(metric, labels), t: t, v: v})
}

// Pending reports the number of buffered samples.
func (a *Appender) Pending() int { return len(a.buf) }

// Commit flushes the buffer and reports how many samples landed. Samples
// apply in append order — so series the batch creates take that creation
// order — under one acquisition of the store lock. Out-of-order samples
// are rejected individually — the rest of the batch still lands — and
// reported joined. The buffer is reusable after Commit regardless of
// errors.
func (a *Appender) Commit() (int, error) {
	applied := 0
	var errs []error
	a.st.mu.Lock()
	for _, p := range a.buf {
		if err := a.st.getOrCreate(p.hash, p.metric, p.labels).appendSample(p.t, p.v); err != nil {
			errs = append(errs, err)
		} else {
			applied++
		}
	}
	a.st.mu.Unlock()
	a.buf = a.buf[:0]
	return applied, errors.Join(errs...)
}
