package telemetry

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"sapsim/internal/sim"
)

// memSeries is the mutable in-store representation of one series. The
// exported Series type is a read-only snapshot of it.
type memSeries struct {
	metric  string
	labels  Labels
	samples []Sample
}

// appendSample enforces strict time order. Called with the store write
// lock held. The error path is the one place the string fingerprint
// survives — the hot path works purely on the 64-bit hash.
func (s *memSeries) appendSample(t sim.Time, v float64) error {
	if n := len(s.samples); n > 0 && s.samples[n-1].T >= t {
		return fmt.Errorf("%w: %s%s t=%v last=%v",
			ErrOutOfOrder, s.metric, s.labels, t, s.samples[n-1].T)
	}
	s.samples = append(s.samples, Sample{T: t, V: v})
	return nil
}

// snapshot returns an immutable view. The three-index slice caps the
// snapshot at the current length: a later append writes past the cap (or
// reallocates), never into the snapshot's window, and the store never
// rewrites or removes a sample, so snapshots stay stable under concurrent
// writes. Called with the store lock held.
func (s *memSeries) snapshot() *Series {
	n := len(s.samples)
	return &Series{Metric: s.metric, Labels: s.labels, Samples: s.samples[:n:n]}
}

// Store holds many series behind one lock and is safe for concurrent use.
// Every writer in the program is a single goroutine — the simulator's
// sampler, a scrape or recorder round, a dataset or snapshot load — so one
// RWMutex serves them; readers share it. The store is append-only: no
// series or sample is ever removed, so every index list stays in creation
// order by construction.
type Store struct {
	mu sync.RWMutex
	// series chains fingerprint collisions; chains are almost always
	// length 1.
	series map[uint64][]*memSeries
	// order lists every series in creation order, for Dump and the counts.
	order []*memSeries
	// postings indexes metric name → member series in creation order.
	postings map[string][]*memSeries
	// byLabel indexes label name → value → member series in creation
	// order, so an equality matcher can seed candidate selection with the
	// smallest posting list.
	byLabel map[string]map[string][]*memSeries

	// interned deduplicates label sets store-wide: every series created
	// with an equal label set shares one backing slice.
	interned map[uint64][]Labels
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		series:   make(map[uint64][]*memSeries),
		postings: make(map[string][]*memSeries),
		byLabel:  make(map[string]map[string][]*memSeries),
		interned: make(map[uint64][]Labels),
	}
}

// ErrOutOfOrder is returned when appending a sample at or before the last
// timestamp of its series.
var ErrOutOfOrder = errors.New("telemetry: out-of-order sample")

// intern returns the canonical copy of a label set. Called with the store
// write lock held.
func (st *Store) intern(l Labels) Labels {
	h := hashLabels(l)
	for _, c := range st.interned[h] {
		if c.Equal(l) {
			return c
		}
	}
	st.interned[h] = append(st.interned[h], l)
	return l
}

// getOrCreate resolves (metric, labels) to its series, creating and
// indexing it on first use. Called with the store write lock held.
func (st *Store) getOrCreate(hash uint64, metric string, labels Labels) *memSeries {
	for _, s := range st.series[hash] {
		if s.metric == metric && s.labels.Equal(labels) {
			return s
		}
	}
	s := &memSeries{metric: metric, labels: st.intern(labels)}
	st.series[hash] = append(st.series[hash], s)
	st.order = append(st.order, s)
	st.postings[metric] = append(st.postings[metric], s)
	for i := 0; i < len(s.labels.kv); i += 2 {
		name, value := s.labels.kv[i], s.labels.kv[i+1]
		vals := st.byLabel[name]
		if vals == nil {
			vals = make(map[string][]*memSeries)
			st.byLabel[name] = vals
		}
		vals[value] = append(vals[value], s)
	}
	return s
}

// Append adds a sample to the series identified by (metric, labels),
// creating it on first use. For bulk ingestion prefer an Appender, which
// batches samples and takes the store lock once per flush.
func (st *Store) Append(metric string, labels Labels, t sim.Time, v float64) error {
	hash := hashSeries(metric, labels)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.getOrCreate(hash, metric, labels).appendSample(t, v)
}

// Matcher restricts a selection to series whose label equals a value.
type Matcher struct {
	Name  string
	Value string
}

// Select returns snapshots of all series of the metric whose labels
// satisfy every matcher, in creation order: every index list is in
// creation order, and filtering preserves it. The postings and label-value
// indexes bound the work by the smallest candidate list, so cost is
// proportional to matching series, not store size. Snapshots are immune to
// subsequent appends.
func (st *Store) Select(metric string, matchers ...Matcher) []*Series {
	st.mu.RLock()
	defer st.mu.RUnlock()
	candidates := st.postings[metric]
	// Seed from the smallest index posting list; every candidate is still
	// verified against the metric and all matchers below. An empty-value
	// matcher means "label absent", which the index cannot serve, so those
	// fall through to the filter.
	for _, m := range matchers {
		if m.Value == "" {
			continue
		}
		if byValue := st.byLabel[m.Name][m.Value]; len(byValue) < len(candidates) {
			candidates = byValue
		}
	}
	out := make([]*Series, 0, len(candidates))
	for _, s := range candidates {
		if s.metric != metric {
			continue
		}
		ok := true
		for _, m := range matchers {
			if s.labels.Get(m.Name) != m.Value {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, s.snapshot())
		}
	}
	return out
}

// Metrics returns the distinct metric names in the store, sorted.
func (st *Store) Metrics() []string {
	st.mu.RLock()
	out := make([]string, 0, len(st.postings))
	for metric := range st.postings {
		out = append(out, metric)
	}
	st.mu.RUnlock()
	sort.Strings(out)
	return out
}

// SeriesCount reports the number of stored series.
func (st *Store) SeriesCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.order)
}

// SampleCount reports the total number of stored samples.
func (st *Store) SampleCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := 0
	for _, s := range st.order {
		n += len(s.samples)
	}
	return n
}

// SeriesData is the serializable form of one series: the metric, the label
// pairs, and the samples. A store dumped and re-loaded behaves identically —
// including the per-metric creation order Select's determinism rests on.
type SeriesData struct {
	Metric  string
	Labels  []string // flattened name/value pairs, sorted by name
	Samples []Sample
}

// Dump snapshots every series in global creation order. Together with Load
// it round-trips a store through a snapshot.
func (st *Store) Dump() []SeriesData {
	st.mu.RLock()
	out := make([]SeriesData, len(st.order))
	for i, s := range st.order {
		samples := make([]Sample, len(s.samples))
		copy(samples, s.samples)
		out[i] = SeriesData{Metric: s.metric, Labels: s.labels.Pairs(), Samples: samples}
	}
	st.mu.RUnlock()
	return out
}

// Load replays a Dump into an empty store, recreating every series in the
// dumped order so creation order — and with it Select order — survives
// the round trip.
func (st *Store) Load(data []SeriesData) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.order) != 0 {
		return errors.New("telemetry: Load into a non-empty store")
	}
	for _, d := range data {
		labels, err := NewLabels(d.Labels...)
		if err != nil {
			return fmt.Errorf("telemetry: load %s: %w", d.Metric, err)
		}
		s := st.getOrCreate(hashSeries(d.Metric, labels), d.Metric, labels)
		s.samples = append(s.samples[:0], d.Samples...)
	}
	return nil
}

// Querier is the read side of the store: the interface the analysis layer
// and the PromQL evaluator consume, decoupling them from the concrete
// store.
type Querier interface {
	// Select returns immutable snapshots of the matching series in a
	// deterministic order.
	Select(metric string, matchers ...Matcher) []*Series
	// Metrics returns the distinct metric names, sorted.
	Metrics() []string
}

var _ Querier = (*Store)(nil)
