package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"sapsim"
	"sapsim/internal/dispatch"
	"sapsim/internal/fleetmetrics"
	"sapsim/internal/promql"
	"sapsim/internal/scenario"
	"sapsim/internal/scrape"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
	"sapsim/internal/trace"
)

// workload is one named input set the benchmark drives as a closed loop
// with a single client.
type workload interface {
	// describe returns the workload's seeds and the exact configs it runs.
	describe() ([]uint64, any)
	// setup prepares the timed loop. The benchmark runs it once before the
	// loop (first) and repeats it after the loop to time it again.
	setup(b *bench, first bool) error
	// op runs the i-th timed op and returns the op times it produced.
	op(b *bench, i int, traced bool) []time.Duration
	// probe runs the traced run's extra checks after the loop.
	probe(b *bench) error
	// layerRoot names the spans the layer table is taken over.
	layerRoot() string
}

func newWorkload(name string, seed uint64, tiny bool) (workload, error) {
	switch name {
	case "paper-cell":
		cfg := func(s uint64) sapsim.Config { return paperConfig(s, tiny) }
		return &cellWorkload{config: cfg, warm: goldenSeed, seeds: cycle(seed, 3), golden: !tiny}, nil
	case "placement-churn":
		bf, err := scenario.ByName("black-friday")
		if err != nil {
			return nil, err
		}
		cfg := func(s uint64) sapsim.Config {
			c := sapsim.DefaultConfig(s)
			c.Scale, c.VMs, c.Days = 0.08, 2800, 6
			if tiny {
				c.Scale, c.VMs, c.Days = 0.01, 200, 2
			}
			c.SampleEvery, c.VMSampleEvery = sim.Hour, 6*sim.Hour
			c.DRSEvery, c.ResizeRate, c.CrossBB = 15*sim.Minute, 0.5, true
			return bf.Configure(c)
		}
		seeds := cycle(seed, 3)
		return &cellWorkload{config: cfg, scenario: bf.Name, warm: seeds[0], seeds: seeds}, nil
	case "dispatched-sweep":
		base := sapsim.DefaultConfig(seed)
		base.Scale, base.VMs, base.Days = 0.02, 500, 3
		if tiny {
			base.Scale, base.VMs, base.Days = 0.01, 150, 2
		}
		base.SampleEvery, base.VMSampleEvery = 15*sim.Minute, sim.Hour
		spec := dispatch.Spec{
			Base:            dispatch.SpecOf(base),
			Scenarios:       []string{"baseline", "host-failures", "maintenance-drain", "cascading-failures"},
			Variants:        []string{"default"},
			Seeds:           cycle(seed, 2),
			CheckpointEvery: 6 * sim.Hour,
		}
		warm := spec
		warm.Base, warm.Scenarios, warm.Seeds = dispatch.SpecOf(paperConfig(goldenSeed, tiny)), []string{"baseline"}, []uint64{goldenSeed}
		return &dispatchedSweep{spec: spec, warm: warm, golden: !tiny}, nil
	case "store-query":
		cfg := sapsim.DefaultConfig(seed)
		cfg.Scale, cfg.VMs, cfg.Days = 0.02, 960, 30
		if tiny {
			cfg.Scale, cfg.VMs, cfg.Days = 0.01, 150, 3
		}
		return &storeQuery{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-cell, placement-churn, dispatched-sweep or store-query)", name)
}

// goldenSeed is the seed testdata/artifact_digests.txt was taken at.
const goldenSeed = 42

// paperConfig is the golden config — DefaultConfig at scale 0.02, 960 VMs,
// 10 days — the benchmark's reference cell.
func paperConfig(seed uint64, tiny bool) sapsim.Config {
	c := sapsim.DefaultConfig(seed)
	c.Scale, c.VMs, c.Days = 0.02, 960, 10
	if tiny {
		c.Scale, c.VMs, c.Days = 0.01, 150, 2
	}
	return c
}

// cycle returns n consecutive seeds starting at seed.
func cycle(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = seed + uint64(i)
	}
	return out
}

// cellWorkload runs whole cells back to back. Op i runs seed
// seeds[(i/2) % len(seeds)], so every seed runs twice in a row: once traced
// and once untraced in a traced run, and always as a determinism check.
type cellWorkload struct {
	config   func(seed uint64) sapsim.Config
	scenario string
	warm     uint64
	seeds    []uint64
	// golden compares seed-42 cells with the pinned golden digests.
	golden bool
	// seen holds the first digests each seed produced.
	seen map[uint64]map[string]string
}

func (w *cellWorkload) describe() ([]uint64, any) {
	type cellConfig struct {
		Scenario string `json:",omitempty"`
		dispatch.ConfigSpec
	}
	cfgs := make(map[uint64]cellConfig)
	for _, s := range append([]uint64{w.warm}, w.seeds...) {
		cfgs[s] = cellConfig{w.scenario, dispatch.SpecOf(w.config(s))}
	}
	return w.seeds, cfgs
}

// setup runs one untimed warm-up cell on the warm seed; on paper-cell that
// is the golden seed, so every run re-proves the golden digests.
func (w *cellWorkload) setup(b *bench, first bool) error {
	w.cell(b, w.warm, nil)
	return nil
}

func (w *cellWorkload) op(b *bench, i int, traced bool) []time.Duration {
	seed := w.seeds[(i/2)%len(w.seeds)]
	var tc *opTrace
	if traced {
		tc = b.root(fmt.Sprintf("op%d/seed%d", i, seed), "op")
	}
	var res *sapsim.Result
	d := b.timeOp(tc, func(tc *opTrace) { res = w.cell(b, seed, tc) })
	if tc != nil && res != nil {
		engineLayers(b.acc, res.Profile, tc.total("sapsim.run"))
		resultLayers(b.acc, res)
		synthIngest(b.acc, res)
	}
	return []time.Duration{d}
}

// cell runs and checks one cell, counting it as one attempted op.
func (w *cellWorkload) cell(b *bench, seed uint64, tc *opTrace) *sapsim.Result {
	b.attempt(1)
	res, digests, err := runCell(w.config(seed), tc)
	if err != nil {
		b.fail("seed %d: %v", seed, err)
		return nil
	}
	if w.golden && seed == goldenSeed {
		if d := diffDigests(digests, b.goldens); d != "" {
			b.fail("seed %d: golden mismatch: %s", seed, d)
			return res
		}
	}
	if w.seen == nil {
		w.seen = make(map[uint64]map[string]string)
	}
	if first, ok := w.seen[seed]; !ok {
		w.seen[seed] = digests
	} else if d := diffDigests(digests, first); d != "" {
		b.fail("seed %d: repeated seed changed its artifacts: %s", seed, d)
	}
	return res
}

func (w *cellWorkload) probe(b *bench) error {
	seed := w.seeds[0]
	want, ok := w.seen[seed]
	if !ok {
		return fmt.Errorf("no cold digests for seed %d", seed)
	}
	return snapshotProbe(b.acc, w.config(seed), want)
}

func (w *cellWorkload) layerRoot() string { return "op" }

// dispatchedSweep drives dispatch.RunLocal — an in-process dispatcher and
// two loopback workers with snapshots on — over the same matrix each op.
// Its op times are per cell, booked to journaled completion, read from the
// sweep journal.
type dispatchedSweep struct {
	spec dispatch.Spec
	// warm is the set-up sweep: the golden cell alone, whose digests must
	// match the golden file when golden is set.
	warm   dispatch.Spec
	golden bool
	// first is the first sweep's merged result; every later sweep must
	// equal it, and in a traced run so must an in-process scenario.Sweep.
	first *scenario.SweepResult
}

func (w *dispatchedSweep) describe() ([]uint64, any) {
	return w.spec.Seeds, map[string]dispatch.Spec{"setup": w.warm, "ops": w.spec}
}

// setup starts a queue, dispatcher and workers and drains a one-cell sweep
// of the golden cell through them, so every run re-proves the golden
// digests on the dispatched path.
func (w *dispatchedSweep) setup(b *bench, first bool) error {
	b.attempt(1)
	merged, _, err := w.sweep(b, w.warm, false)
	if err != nil {
		return err
	}
	switch run := merged.Runs[0]; {
	case run.Err != "":
		b.fail("golden cell: %s", run.Err)
	case w.golden:
		if d := diffDigests(run.Digests, b.goldens); d != "" {
			b.fail("golden cell: golden mismatch: %s", d)
		}
	}
	return nil
}

func (w *dispatchedSweep) op(b *bench, i int, traced bool) []time.Duration {
	var tc *opTrace
	if traced {
		tc = b.root(fmt.Sprintf("sweep%d", i), "sweep")
	}
	cells := len(w.spec.Keys())
	b.attempt(cells)
	merged, times, err := w.sweep(b, w.spec, traced)
	tc.close(time.Now())
	if err != nil {
		b.failN(cells, "sweep %d: %v", i, err)
		return nil
	}
	if w.first == nil {
		w.first = merged
	}
	for j, run := range merged.Runs {
		switch {
		case run.Err != "":
			b.fail("sweep %d cell %v: %s", i, run.Key, run.Err)
		case len(run.Digests) != len(sapsim.Experiments()):
			b.fail("sweep %d cell %v: %d digests", i, run.Key, len(run.Digests))
		case j >= len(w.first.Runs) || !reflect.DeepEqual(run, w.first.Runs[j]):
			b.fail("sweep %d cell %v differs from the first sweep", i, run.Key)
		}
	}
	if len(times) != cells {
		b.failN(cells-len(times), "sweep %d: %d of %d cells completed", i, len(times), cells)
	}
	return times
}

// sweep runs spec through a fresh queue in a scratch directory and returns
// the merged result and each done cell's book→complete time. A traced
// sweep also records the journal's spans and the dispatch layer metrics.
func (w *dispatchedSweep) sweep(b *bench, spec dispatch.Spec, traced bool) (*scenario.SweepResult, []time.Duration, error) {
	dir, err := os.MkdirTemp(b.tmp, "sweep-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	q, err := dispatch.NewQueue(dir, spec, dispatch.QueueOptions{})
	if err != nil {
		return nil, nil, err
	}
	reg := fleetmetrics.NewRegistry()
	q.Instrument(reg)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	merged, err := dispatch.RunLocal(ctx, q, dispatch.LocalOptions{Workers: 2})
	if err != nil {
		q.Close()
		return nil, nil, err
	}
	var profiles map[string]*sapsim.Profile
	if traced {
		profiles = make(map[string]*sapsim.Profile)
		err = q.EachProfile(func(key scenario.Key, rec dispatch.ProfileRecord) error {
			blob, err := q.Store().Get(rec.Digest)
			if err != nil {
				return err
			}
			p, err := sapsim.DecodeProfileBytes(blob)
			profiles[dispatch.CellTraceID(key)] = p
			return err
		})
	}
	if cerr := q.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	spans, err := dispatch.TraceFromJournal(dir)
	if err != nil {
		return nil, nil, err
	}
	var times []time.Duration
	for _, s := range spans {
		if s.Name == "attempt" && s.Attrs["outcome"] == "done" {
			times = append(times, s.Duration())
		}
	}
	if traced {
		b.rec.add(spans...)
		if err := dispatchLayers(b.acc, spans, profiles, reg, merged); err != nil {
			return nil, nil, err
		}
	}
	return merged, times, nil
}

// dispatchLayers turns one traced sweep's journal spans, worker profiles,
// queue metrics and merged digests into per-cell layer observations.
func dispatchLayers(acc *accumulator, spans []trace.Span, profiles map[string]*sapsim.Profile,
	reg *fleetmetrics.Registry, merged *scenario.SweepResult) error {
	type cell struct {
		attempt, wait, build, run, snapUp, render, upload time.Duration
	}
	cells := make(map[string]*cell)
	get := func(tr string) *cell {
		if cells[tr] == nil {
			cells[tr] = &cell{}
		}
		return cells[tr]
	}
	attempts := make(map[[2]string]bool) // (trace, span ID) of every attempt
	for _, s := range spans {
		if s.Name == "attempt" {
			get(s.Trace).attempt += s.Duration()
			attempts[[2]string{s.Trace, s.ID}] = true
		}
	}
	for _, s := range spans {
		c := get(s.Trace)
		d := s.Duration()
		switch s.Name {
		case "queue-wait":
			c.wait += d
		case "snapshot-upload":
			c.snapUp += d
		case "artifact-render":
			c.render += d
		case "artifact-upload":
			c.upload += d
		}
		if attempts[[2]string{s.Trace, s.Parent}] {
			switch s.Name {
			case "build":
				c.build += d
			case "run":
				c.run += d
			}
		}
	}
	for tr, c := range cells {
		acc.obs("dispatch.queue_wait_s", c.wait.Seconds())
		acc.obs("dispatch.overhead_s", (c.attempt - c.build - c.run).Seconds())
		acc.obs("dispatch.snapshot_upload_s", c.snapUp.Seconds())
		acc.obs("dispatch.artifact_render_s", c.render.Seconds())
		acc.obs("dispatch.artifact_upload_s", c.upload.Seconds())
		acc.obs("sapsim.build_s", c.build.Seconds())
		acc.obs("sapsim.run_s", c.run.Seconds())
		if p := profiles[tr]; p != nil {
			engineLayers(acc, p, c.run)
		}
	}

	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		return err
	}
	samples, err := scrape.Parse(&buf)
	if err != nil {
		return fmt.Errorf("queue metrics: %w", err)
	}
	perCell := func(name string) float64 {
		var v float64
		for _, s := range samples {
			if s.Name == name {
				v += s.Value
			}
		}
		return v / float64(max(len(cells), 1))
	}
	acc.obs("dispatch.journal_append_s", perCell(dispatch.MetricJournalAppend+"_sum"))
	acc.obs("dispatch.journal_fsyncs", perCell(dispatch.MetricJournalFsyncs))
	acc.obs("dispatch.heartbeats", perCell(dispatch.MetricProgress))
	acc.obs("dispatch.rebooks", perCell(dispatch.MetricRebooks))

	refs, distinct := 0, make(map[string]bool)
	for _, run := range merged.Runs {
		for _, d := range run.Digests {
			refs++
			distinct[d] = true
		}
	}
	if refs > 0 {
		acc.obs("artifact.dedup_ratio", 1-float64(len(distinct))/float64(refs))
	}
	return nil
}

// probe proves the dispatched result equals an in-process scenario.Sweep of
// the same matrix with the same fingerprint, checks every cell's
// invariants there, and snapshots the first cell at its midpoint.
func (w *dispatchedSweep) probe(b *bench) error {
	if w.first == nil {
		return fmt.Errorf("no dispatched sweep finished")
	}
	m, err := w.spec.Matrix()
	if err != nil {
		return err
	}
	m.Workers = 1
	m.Fingerprint = func(res *sapsim.Result) (map[string]string, error) {
		tc := b.root(fmt.Sprintf("reference/seed%d", res.Config.Seed), "reference")
		digests, err := artifactDigests(res, tc)
		tc.close(time.Now())
		return digests, err
	}
	m.OnResult = func(key scenario.Key, res *sapsim.Result) {
		tc := b.root("reference/"+dispatch.CellTraceID(key), "reference")
		err := tc.span("scenario.invariants", func(*opTrace) error { return scenario.CheckInvariants(res) })
		tc.close(time.Now())
		if err != nil {
			b.fail("cell %v: invariants: %v", key, err)
		}
		resultLayers(b.acc, res)
		synthIngest(b.acc, res)
	}
	ref, err := scenario.Sweep(m)
	if err != nil {
		return err
	}
	b.attempt(len(ref.Runs))
	for i, run := range ref.Runs {
		if i >= len(w.first.Runs) || !reflect.DeepEqual(run, w.first.Runs[i]) {
			b.fail("in-process cell %v differs from the dispatched one", run.Key)
		}
	}
	key := w.spec.Keys()[0]
	cfg, err := w.spec.CellConfig(key)
	if err != nil {
		return err
	}
	return snapshotProbe(b.acc, cfg, w.first.Runs[0].Digests)
}

func (w *dispatchedSweep) layerRoot() string { return "attempt" }

// storeQuery measures the telemetry read path over one 30-day cell built in
// set-up: each op recomputes the 18-artifact set and evaluates a fixed mix
// of PromQL range aggregations, and must reproduce the set-up's first
// evaluation exactly.
type storeQuery struct {
	cfg  sapsim.Config
	res  *sapsim.Result
	want *evaluation
}

// queries is the fixed PromQL mix, each evaluated at the horizon over the
// whole window.
var queries = []string{
	`avg by (cluster) (avg_over_time(vrops_hostsystem_cpu_core_utilization_percentage[30d]))`,
	`max by (cluster) (max_over_time(vrops_hostsystem_cpu_contention_percentage[30d]))`,
	`sum by (cluster) (sum_over_time(vrops_hostsystem_cpu_ready_milliseconds[30d]))`,
	`avg by (cluster) (quantile_over_time(0.95, vrops_hostsystem_memory_usage_percentage[30d]))`,
	`count(max_over_time(vrops_hostsystem_cpu_contention_percentage[30d]) > 10)`,
	`avg(avg_over_time(vrops_virtualmachine_cpu_usage_ratio[30d]))`,
	`max(max_over_time(vrops_virtualmachine_memory_consumed_ratio[30d]))`,
}

// evaluation is one op's output: artifact digests and rendered query
// results.
type evaluation struct {
	digests map[string]string
	results []string
}

func (w *storeQuery) describe() ([]uint64, any) {
	return []uint64{w.cfg.Seed}, struct {
		Fixture dispatch.ConfigSpec
		Queries []string
	}{dispatch.SpecOf(w.cfg), queries}
}

// setup builds the fixture cell and takes its first evaluation. Repeated
// set-ups must evaluate identically. A traced run traces the first one.
func (w *storeQuery) setup(b *bench, first bool) error {
	w.res = nil
	var tc *opTrace
	if first && b.opt.trace {
		tc = b.root("setup", "setup")
	}
	b.attempt(1)
	res, err := buildRun(w.cfg, tc)
	if err == nil {
		err = tc.span("scenario.invariants", func(*opTrace) error { return scenario.CheckInvariants(res) })
	}
	tc.close(time.Now())
	if err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	ev, err := w.evaluate(res, nil)
	if err != nil {
		return fmt.Errorf("fixture evaluation: %w", err)
	}
	if w.want != nil {
		// Artifacts are deterministic per seed, so a digest change is a
		// failure. Query results are compared too, but a difference there
		// is reported as a finding: the VM sampler creates its series in
		// Go map order, so across processes — and across fixtures — the
		// order promql sums VM series in, and so the last bits of an
		// aggregate over them, can change.
		if d := diffDigests(ev.digests, w.want.digests); d != "" {
			b.fail("repeated set-up changed its artifacts: %s", d)
		} else if d := ev.diff(w.want); d != "" {
			b.finding("repeated set-up: %s (VM series creation order follows map iteration)", d)
		}
	}
	w.res = res
	if w.want == nil {
		w.want = ev
	}
	if tc != nil {
		engineLayers(b.acc, res.Profile, tc.total("sapsim.run"))
		resultLayers(b.acc, res)
		synthIngest(b.acc, res)
	}
	return nil
}

func (w *storeQuery) op(b *bench, i int, traced bool) []time.Duration {
	var tc *opTrace
	if traced {
		tc = b.root(fmt.Sprintf("op%d", i), "op")
	}
	b.attempt(1)
	var ev *evaluation
	var err error
	d := b.timeOp(tc, func(tc *opTrace) { ev, err = w.evaluate(w.res, tc) })
	switch {
	case err != nil:
		b.fail("op %d: %v", i, err)
	case ev.diff(w.want) != "":
		b.fail("op %d: %s", i, ev.diff(w.want))
	}
	return []time.Duration{d}
}

func (w *storeQuery) evaluate(res *sapsim.Result, tc *opTrace) (*evaluation, error) {
	digests, err := artifactDigests(res, tc)
	if err != nil {
		return nil, err
	}
	ev := &evaluation{digests: digests}
	for _, q := range queries {
		err := tc.span("promql.eval", func(tc *opTrace) error {
			eng := &promql.Engine{Store: tracedQuerier{q: res.Store, tc: tc}}
			vec, err := eng.Query(q, w.cfg.Horizon())
			if err != nil {
				return fmt.Errorf("%s: %w", q, err)
			}
			lines := make([]string, len(vec))
			for i, s := range vec {
				lines[i] = s.Labels.String() + " " + strconv.FormatFloat(s.Value, 'g', -1, 64)
			}
			sort.Strings(lines)
			ev.results = append(ev.results, strings.Join(lines, "\n"))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return ev, nil
}

func (e *evaluation) diff(want *evaluation) string {
	if d := diffDigests(e.digests, want.digests); d != "" {
		return d
	}
	for i := range want.results {
		if i >= len(e.results) || e.results[i] != want.results[i] {
			return fmt.Sprintf("query %q result changed", queries[i])
		}
	}
	return ""
}

func (w *storeQuery) probe(b *bench) error {
	return snapshotProbe(b.acc, w.cfg, w.want.digests)
}

func (w *storeQuery) layerRoot() string { return "op" }

// tracedQuerier is the telemetry.Querier handed to promql.Engine: it times
// each Select as a telemetry.select span and counts the series returned.
type tracedQuerier struct {
	q  telemetry.Querier
	tc *opTrace
}

func (t tracedQuerier) Select(metric string, matchers ...telemetry.Matcher) []*telemetry.Series {
	var out []*telemetry.Series
	t.tc.span("telemetry.select", func(*opTrace) error {
		out = t.q.Select(metric, matchers...)
		return nil
	})
	t.tc.count("telemetry.series_selected", float64(len(out)))
	return out
}

func (t tracedQuerier) Metrics() []string { return t.q.Metrics() }
