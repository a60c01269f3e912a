package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"sapsim/internal/trace"
)

// recorder keeps the traced run's spans in memory until the run ends. It
// is safe for concurrent use: the in-process reference sweep fingerprints
// cells from its worker goroutines.
type recorder struct {
	mu    sync.Mutex
	seq   int
	spans []trace.Span
}

func (r *recorder) nextID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return fmt.Sprintf("b%d", r.seq)
}

func (r *recorder) add(spans ...trace.Span) {
	r.mu.Lock()
	r.spans = append(r.spans, spans...)
	r.mu.Unlock()
}

func (r *recorder) all() []trace.Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]trace.Span(nil), r.spans...)
}

// accumulator gathers per-layer observations; a metric's value is the
// mean of its observations. Safe for concurrent use.
type accumulator struct {
	mu  sync.Mutex
	sum map[string]float64
	n   map[string]int
}

func newAccumulator() *accumulator {
	return &accumulator{sum: make(map[string]float64), n: make(map[string]int)}
}

func (a *accumulator) obs(name string, v float64) {
	a.mu.Lock()
	a.sum[name] += v
	a.n[name]++
	a.mu.Unlock()
}

func (a *accumulator) mean(name string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n[name] == 0 {
		return 0
	}
	return a.sum[name] / float64(a.n[name])
}

// opTrace records the spans of one traced op: a root span and the layer
// calls made under it. Each layer's total time and counts within the op
// become one observation of "<layer>_s" and of each counter when the root
// closes. A nil *opTrace is an untraced op: span just runs the call.
// An opTrace belongs to one goroutine.
type opTrace struct {
	rec   *recorder
	acc   *accumulator
	trace string
	id    string
	name  string
	start time.Time
	// state is shared by the root and every span under it.
	state *opState
}

type opState struct {
	totals map[string]time.Duration
	counts map[string]float64
}

// newRoot opens a traced op named name in its own trace.
func newRoot(rec *recorder, acc *accumulator, traceID, name string) *opTrace {
	return &opTrace{rec: rec, acc: acc, trace: traceID, id: rec.nextID(), name: name,
		start: time.Now(), state: &opState{totals: make(map[string]time.Duration), counts: make(map[string]float64)}}
}

// span times fn as a child span called name and passes fn the child, so
// calls fn makes nest under it.
func (t *opTrace) span(name string, fn func(*opTrace) error) error {
	if t == nil {
		return fn(nil)
	}
	child := &opTrace{rec: t.rec, acc: t.acc, trace: t.trace, id: t.rec.nextID(), name: name, state: t.state}
	start := time.Now()
	err := fn(child)
	end := time.Now()
	t.rec.add(trace.Span{Trace: t.trace, ID: child.id, Parent: t.id, Name: name,
		Start: trace.Micros(start), End: trace.Micros(end)})
	t.state.totals[name] += end.Sub(start)
	return err
}

// count adds n to a per-op counter reported under name.
func (t *opTrace) count(name string, n float64) {
	if t != nil {
		t.state.counts[name] += n
	}
}

// total reports the time spent in spans called name so far in this op.
func (t *opTrace) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	return t.state.totals[name]
}

// close ends the root span at end and turns the op's layer totals into
// observations.
func (t *opTrace) close(end time.Time) {
	if t == nil {
		return
	}
	t.rec.add(trace.Span{Trace: t.trace, ID: t.id, Name: t.name,
		Start: trace.Micros(t.start), End: trace.Micros(end)})
	for name, d := range t.state.totals {
		t.acc.obs(name+"_s", d.Seconds())
	}
	for name, n := range t.state.counts {
		t.acc.obs(name, n)
	}
}

// layerTable attributes the time of every root span called root to the
// span names beneath it by self time: a span's duration minus the union of
// its children, each child clipped to its parent. Rows therefore sum to
// the root spans' total plus Overlap, the time children ran concurrently
// with a sibling (worker spans that overlap the engine run on the
// dispatched workload); in-process ops have no overlap, so their rows sum
// to the op span exactly.
type layerTable struct {
	Root     string     `json:"root"`
	Roots    int        `json:"roots"`
	RootS    float64    `json:"root_s"`
	Rows     []layerRow `json:"rows"`
	OverlapS float64    `json:"overlap_s"`
	Coverage float64    `json:"coverage"`
}

// layerRow is one span name's mean self time per root.
type layerRow struct {
	Name  string  `json:"name"`
	SelfS float64 `json:"self_s"`
}

func buildLayerTable(spans []trace.Span, root string) layerTable {
	type key struct{ trace, id string }
	kids := make(map[key][]trace.Span)
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.Trace, s.Parent}
			kids[k] = append(kids[k], s)
		}
	}
	self := make(map[string]int64)
	var rootTotal, covered, overlap int64
	var walk func(s trace.Span, isRoot bool)
	walk = func(s trace.Span, isRoot bool) {
		var clipped []trace.Span
		var sum int64
		for _, c := range kids[key{s.Trace, s.ID}] {
			c.Start, c.End = max(c.Start, s.Start), min(c.End, s.End)
			if c.End < c.Start {
				c.End = c.Start
			}
			clipped = append(clipped, c)
			sum += c.End - c.Start
		}
		u := union(clipped)
		name := s.Name
		if isRoot {
			name += " (self)"
			covered += u
		}
		self[name] += s.End - s.Start - u
		overlap += sum - u
		for _, c := range clipped {
			walk(c, false)
		}
	}
	t := layerTable{Root: root}
	for _, s := range spans {
		if s.Name == root {
			t.Roots++
			rootTotal += s.End - s.Start
			walk(s, true)
		}
	}
	if t.Roots == 0 {
		return t
	}
	per := func(us int64) float64 { return float64(us) / 1e6 / float64(t.Roots) }
	t.RootS = per(rootTotal)
	t.OverlapS = per(overlap)
	if rootTotal > 0 {
		t.Coverage = float64(covered) / float64(rootTotal)
	}
	for name, us := range self {
		t.Rows = append(t.Rows, layerRow{Name: name, SelfS: per(us)})
	}
	sort.Slice(t.Rows, func(i, j int) bool {
		if t.Rows[i].SelfS != t.Rows[j].SelfS {
			return t.Rows[i].SelfS > t.Rows[j].SelfS
		}
		return t.Rows[i].Name < t.Rows[j].Name
	})
	return t
}

// union is the length of the union of the spans' intervals.
func union(spans []trace.Span) int64 {
	s := append([]trace.Span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, x := range s {
		if !open || x.Start > curEnd {
			if open {
				total += curEnd - curStart
			}
			curStart, curEnd, open = x.Start, x.End, true
			continue
		}
		curEnd = max(curEnd, x.End)
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// print renders the table with its sum check.
func (t layerTable) print(w io.Writer) {
	if t.Roots == 0 {
		fmt.Fprintf(w, "# layer table: no %s spans recorded\n", t.Root)
		return
	}
	fmt.Fprintf(w, "# layer table: self time per %s span, mean over %d\n", t.Root, t.Roots)
	var sum float64
	for _, r := range t.Rows {
		sum += r.SelfS
		fmt.Fprintf(w, "#   %-34s %10.6f s  %6.2f%%\n", r.Name, r.SelfS, 100*r.SelfS/t.RootS)
	}
	fmt.Fprintf(w, "#   rows sum %.6f s - overlap %.6f s = %.6f s; %s span %.6f s; trace.coverage %.4f\n",
		sum, t.OverlapS, sum-t.OverlapS, t.Root, t.RootS, t.Coverage)
}
