// Command perfbench is sapsim's benchmark. It drives one named workload as a
// closed loop with a single client for a fixed time, checks every output,
// and prints each metric by name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload paper-cell --seed 1 --seconds 45 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates traced and
// untraced ops, records spans around the benchmark's calls into each layer,
// writes them as a Chrome trace, prints the per-workload layer table and
// reports the per-layer metrics. See README.md beside this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"sapsim/internal/trace"
)

// setupReps is how many times set-up runs: once before the timed loop and
// the rest after it. setup_s is their median.
const setupReps = 3

// options are the command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	root     string
	out      string
	golden   string
	delay    time.Duration
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var traceFlag int
	var size string
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "paper-cell, placement-churn, dispatched-sweep or store-query")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed loop runs")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer run")
	fs.StringVar(&size, "size", "full", "full, or tiny for the benchmark's self-tests")
	fs.StringVar(&o.root, "root", ".", "root of the sapsim checkout")
	fs.StringVar(&o.out, "out", "", "directory for result and trace files (default ROOT/.bench_build/out)")
	fs.StringVar(&o.golden, "golden", "", "golden digest file (default ROOT/testdata/artifact_digests.txt)")
	fs.DurationVar(&o.delay, "inject-delay", 0, "self-test: sleep this long inside each in-process op's timer")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if size != "full" && size != "tiny" {
		return o, fmt.Errorf("--size must be full or tiny")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	o.trace, o.tiny = traceFlag == 1, size == "tiny"
	if o.out == "" {
		o.out = filepath.Join(o.root, ".bench_build", "out")
	}
	if o.golden == "" {
		o.golden = filepath.Join(o.root, "testdata", "artifact_digests.txt")
	}
	return o, nil
}

// bench is one benchmark run's shared state.
type bench struct {
	opt     options
	tmp     string
	goldens map[string]string
	rec     *recorder
	acc     *accumulator

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
	findings  []string
}

func (b *bench) attempt(n int) {
	b.mu.Lock()
	b.attempted += n
	b.mu.Unlock()
}

func (b *bench) fail(format string, args ...any) { b.failN(1, format, args...) }

// failN counts n failed ops under one message.
func (b *bench) failN(n int, format string, args ...any) {
	b.mu.Lock()
	b.failed += n
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// finding records a program defect the run observed that does not make an
// op's output wrong.
func (b *bench) finding(format string, args ...any) {
	b.mu.Lock()
	b.findings = append(b.findings, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// root opens a traced op.
func (b *bench) root(traceID, name string) *opTrace {
	return newRoot(b.rec, b.acc, b.opt.workload+"/"+traceID, name)
}

// timeOp is the op wrapper: it times fn, including any injected delay,
// and closes the op's root span.
func (b *bench) timeOp(tc *opTrace, fn func(*opTrace)) time.Duration {
	start := time.Now()
	fn(tc)
	if b.opt.delay > 0 {
		time.Sleep(b.opt.delay)
	}
	end := time.Now()
	tc.close(end)
	return end.Sub(start)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the benchmark and returns the exit code: 0 when every op
// was correct, 1 when any failed or mismatched (the result is still
// printed), 2 when the benchmark could not run at all (no result).
func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := benchmark(opt, args, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func benchmark(opt options, args []string, w io.Writer) (*result, error) {
	wl, err := newWorkload(opt.workload, opt.seed, opt.tiny)
	if err != nil {
		return nil, err
	}
	b := &bench{opt: opt, rec: &recorder{}, acc: newAccumulator()}
	if b.goldens, err = readGoldens(opt.golden); err != nil {
		return nil, err
	}
	scratch := filepath.Join(opt.root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	if b.tmp, err = os.MkdirTemp(scratch, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.tmp)

	seeds, configs := wl.describe()
	prov := newProvenance(opt.root, args, seeds, configs)
	provJSON, _ := json.Marshal(prov)
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g trace=%t\n# provenance %s\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, provJSON)

	timeSetup := func(first bool) (float64, error) {
		start := time.Now()
		if err := wl.setup(b, first); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		return time.Since(start).Seconds(), nil
	}
	first, err := timeSetup(true)
	if err != nil {
		return nil, err
	}
	setups := []float64{first}

	// Return set-up's garbage to the OS first: the runtime keeps freed
	// pages resident, and they would otherwise stand in for the loop's peak.
	debug.FreeOSMemory()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var all, traced, untraced []float64
	start := time.Now()
	deadline := start.Add(time.Duration(opt.seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		// ABBA order: traced ops 0, 3, 4, 7, … so neither side always runs
		// first within a pair.
		on := opt.trace && (i%4 == 0 || i%4 == 3)
		for _, d := range wl.op(b, i, on) {
			all = append(all, d.Seconds())
			if on {
				traced = append(traced, d.Seconds())
			} else {
				untraced = append(untraced, d.Seconds())
			}
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	peakRSS := peakRSSMB()
	if len(all) == 0 {
		return nil, errors.New("no op completed")
	}
	// The remaining set-ups run after the loop, so the median samples the
	// machine at three points in the run rather than in one stretch.
	for len(setups) < setupReps {
		s, err := timeSetup(false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	var table layerTable
	if opt.trace {
		if err := wl.probe(b); err != nil {
			b.fail("probe: %v", err)
		}
		if m := median(untraced); m > 0 {
			b.acc.obs("trace.overhead", median(traced)/m)
		}
		table = buildLayerTable(b.rec.all(), wl.layerRoot())
		b.acc.obs("trace.coverage", table.Coverage)
	}

	e2e := map[string]float64{
		"op_s.p50":        median(all),
		"ops_per_s":       float64(len(all)) / elapsed.Seconds(),
		"alloc_mb_per_op": float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(len(all)),
		"peak_rss_mb":     peakRSS,
		"setup_s":         median(setups),
	}
	res := &result{Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]metricValue)}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	fmt.Fprintf(w, "# ops=%d attempted=%d failed=%d fail_frac=%g elapsed_s=%.3f setups_s=%v\n",
		len(all), res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)),
		elapsed.Seconds(), setups)
	fmt.Fprintf(w, "# op_s %.4f\n", all)
	for _, p := range b.problems {
		fmt.Fprintf(w, "# FAIL %s\n", p)
	}
	for _, f := range b.findings {
		fmt.Fprintf(w, "# FINDING %s\n", f)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-28s %14.6f %s\n", m.Name, e2e[m.Name], m.Unit)
	}
	if pct, v, ok := tail(all); ok {
		fmt.Fprintf(w, "%-28s %14.6f s (p%g of %d ops)\n", "op_s.tail", v, pct, len(all))
	} else {
		fmt.Fprintf(w, "%-28s %14s (%d ops: no percentile leaves 10 beyond it)\n", "op_s.tail", "n/a", len(all))
	}
	fmt.Fprintf(w, "%-28s %14.6f\n", "fail_frac", float64(res.Failed)/float64(max(res.Attempted, 1)))

	if opt.trace {
		for _, m := range perLayer() {
			res.Metrics[m.Name] = metricValue{b.acc.mean(m.Name), m.Unit}
			fmt.Fprintf(w, "%-34s %16.6f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
		}
		table.print(w)
		b.printEngine(w)
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{e2e[m.Name], m.Unit}
		}
	}
	if err := b.writeOutputs(prov, res, table); err != nil {
		return nil, err
	}
	return res, nil
}

// printEngine renders the engine's phase shares of the run span and the
// synthesis-vs-ingest estimate.
func (b *bench) printEngine(w io.Writer) {
	run := b.acc.mean("sapsim.run_s")
	if run == 0 {
		return
	}
	type share struct {
		name string
		s    float64
	}
	var rows []share
	b.acc.mu.Lock()
	for name := range b.acc.sum {
		if phase, ok := strings.CutPrefix(name, "engprof.phase."); ok {
			rows = append(rows, share{phase, 0})
		}
	}
	b.acc.mu.Unlock()
	for i := range rows {
		rows[i].s = b.acc.mean("engprof.phase." + rows[i].name)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].s > rows[j].s })
	fmt.Fprintf(w, "# engine phases (Result.Profile), share of sapsim.run %.6f s; engprof.coverage %.4f\n",
		run, b.acc.mean("engprof.coverage"))
	for _, r := range rows {
		fmt.Fprintf(w, "#   %-34s %10.6f s  %6.2f%%\n", r.name, r.s, 100*r.s/run)
	}
	if synth, ingest := b.acc.mean("core.synth_s"), b.acc.mean("core.ingest_s"); synth+ingest > 0 {
		fmt.Fprintf(w, "#   sampling split (estimated): synthesis %.6f s (%.1f%%), ingest %.6f s (%.1f%%)\n",
			synth, 100*synth/(synth+ingest), ingest, 100*ingest/(synth+ingest))
	}
}

// writeOutputs saves the result with its provenance and, for a traced
// run, the spans as a Chrome trace.
func (b *bench) writeOutputs(prov provenance, res *result, table layerTable) error {
	if err := os.MkdirAll(b.opt.out, 0o755); err != nil {
		return err
	}
	mode := "untraced"
	if b.opt.trace {
		mode = "traced"
	}
	base := filepath.Join(b.opt.out, fmt.Sprintf("%s-seed%d-%s", b.opt.workload, b.opt.seed, mode))
	doc, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Result     *result    `json:"result"`
		Problems   []string   `json:"problems,omitempty"`
		Findings   []string   `json:"findings,omitempty"`
		Layers     layerTable `json:"layers"`
	}{prov, res, b.problems, b.findings, table}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", doc, 0o644); err != nil {
		return err
	}
	if !b.opt.trace {
		return nil
	}
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, b.rec.all()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readGoldens loads the pinned artifact digests, "id sha256" per line.
func readGoldens(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("golden digests: malformed line %q", line)
		}
		want[id] = sum
	}
	return want, nil
}
