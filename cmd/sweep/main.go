// Command sweep runs a (scenario × scheduler-config × seed) matrix and
// prints a comparative report of per-scenario deltas against the baseline
// for the headline artifacts: packing efficiency, scheduling latency
// proxy, and migration counts.
//
// Three execution modes share one matrix definition:
//
//   - default: in-process across a bounded worker pool (-workers).
//   - -dispatch ADDR: serve the matrix as a durable dispatcher at ADDR and
//     let simworker processes (this machine or others) drain it over the
//     wire protocol (/book, /progress, /complete). Every state transition
//     lands in a journal (-journal, default OUT/journal), so a killed
//     sweep resumes. While it runs, the dispatcher also serves its fleet
//     metrics at /metrics and the browsable report bundle at /bundle.
//   - -resume DIR: reopen an interrupted dispatched sweep — finished cells
//     keep their recorded results, in-flight ones re-run. Without
//     -dispatch the remaining cells run in-process over loopback HTTP;
//     with it they are served to external workers again.
//
// All three produce byte-identical reports for the same matrix (the
// dispatch package's tests enforce it). SIGINT or SIGTERM cancels the
// sweep; a dispatched sweep closes (and fsyncs) its journal on the way
// out, so -resume picks up where it stopped.
//
// Usage:
//
//	sweep [-scale F] [-vms N] [-days N] [-sample D] \
//	      [-scenarios a,b,...] [-variants x,y,...] [-seeds 7,11,...] \
//	      [-workers N] [-timeout D] [-out DIR] [-diff] [-list] [-branch] \
//	      [-dispatch ADDR] [-resume DIR] [-journal DIR] [-lease D] \
//	      [-bundle DIR] [-trace FILE] [-engprof DIR] [-pprof ADDR]
//
// -lease is how long a dispatched cell may go without a worker heartbeat
// before it re-books to another worker. -pprof serves net/http/pprof on
// its own listener, for profiling the sweep mid-run.
//
// -engprof DIR exports each cell's engine self-profile — the always-on
// per-phase wall-time/work attribution the core collects as it runs — as
// one JSON file per cell (scenario__variant__seed.engprof.json), ready for
// analyze -engprof. In-process sweeps write the files as cells finish; the
// dispatched and resumed modes read the blobs the workers shipped into the
// content-addressed store (profile pointers survive completion and
// kill+resume, so a resumed sweep exports attribution for every cell).
//
// -trace FILE exports the sweep's cell-lifecycle trace as Chrome
// trace-event JSON (load it at https://ui.perfetto.dev): per cell, a root
// span covering queued→done with queue-wait and per-attempt child spans.
// In the dispatched and resumed modes the trace reconstructs from the
// journal and includes every worker-shipped engine-phase span; all three
// modes emit the same span identity scheme.
//
// Scenario and variant names come from the builtin libraries; -list prints
// them. Runs are fully deterministic per seed, independent of -workers and
// of how cells are distributed. -diff fingerprints every cell (SHA-256 per
// artifact, all 18) and prints which artifacts changed versus the baseline
// scenario for the same variant and seed.
//
// -bundle DIR materializes the finished sweep as a browsable report
// bundle: index.html, the comparative reports, one baseline-vs-scenario
// page per scenario, and every cell's artifact bodies, each read out of
// the content-addressed store with digest verification (SHA256SUMS in the
// bundle re-verifies offline). In the dispatched and resumed modes the
// bodies come from the store the workers uploaded into, under the journal
// directory; in the in-process mode they are captured during the sweep —
// all three produce byte-identical bundles for the same matrix.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sapsim"
	"sapsim/internal/artifact"
	"sapsim/internal/core"
	"sapsim/internal/dispatch"
	"sapsim/internal/fleetmetrics"
	"sapsim/internal/pprofserve"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
	"sapsim/internal/trace"
)

func main() {
	var (
		scale        = flag.Float64("scale", 0.02, "region scale (1.0 = 1,823 hypervisors)")
		vms          = flag.Int("vms", 960, "initial VM population per run")
		days         = flag.Int("days", 10, "observation window in days")
		sample       = flag.Duration("sample", 15*time.Minute, "host sampling interval")
		scenarioList = flag.String("scenarios", "", "comma-separated scenario names (default: all builtin)")
		variantList  = flag.String("variants", "default", "comma-separated variant names (\"all\" = every builtin)")
		seedList     = flag.String("seeds", "2024", "comma-separated seeds")
		workers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		timeout      = flag.Duration("timeout", 0, "wall-clock limit for the whole sweep (0 = none)")
		progress     = flag.Bool("progress", true, "print per-cell completions to stderr")
		out          = flag.String("out", "", "directory for report.txt and runs.csv")
		diff         = flag.Bool("diff", false, "fingerprint all artifacts per cell and print per-cell diffs vs the baseline scenario")
		list         = flag.Bool("list", false, "list builtin scenarios and variants, then exit")
		dispatchTo   = flag.String("dispatch", "", "serve the matrix to external simworkers at this address instead of running in-process")
		resumeDir    = flag.String("resume", "", "resume an interrupted dispatched sweep from this journal directory")
		journalDir   = flag.String("journal", "", "journal directory for -dispatch (default: OUT/journal, or a temp dir)")
		checkpoint   = flag.Duration("checkpoint", 6*time.Hour, "simulated-time cadence of dispatched workers' mid-run snapshots")
		lease        = flag.Duration("lease", dispatch.DefaultLease, "heartbeat deadline before a dispatched cell re-books")
		branch       = flag.Bool("branch", false, "warm-fork cells sharing a (variant, seed) from one snapshot of their common prefix (in-process mode only; byte-identical to a cold sweep)")
		bundleDir    = flag.String("bundle", "", "materialize a digest-verified report bundle (artifact bodies included) into this directory")
		traceOut     = flag.String("trace", "", "export the sweep's cell-lifecycle trace (Chrome trace-event JSON, Perfetto-loadable) to this file")
		engprofDir   = flag.String("engprof", "", "export each cell's engine self-profile as JSON into this directory (for analyze -engprof)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof at this address (e.g. 127.0.0.1:6060; empty = off)")
	)
	flag.Parse()
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	if *list {
		fmt.Println("scenarios:")
		for _, sc := range scenario.Builtin() {
			fmt.Printf("  %-20s %s\n", sc.Name, sc.Description)
		}
		fmt.Println("variants:")
		for _, v := range scenario.BuiltinVariants() {
			fmt.Printf("  %s\n", v.Name)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *pprofAddr != "" {
		bound, err := pprofserve.Serve(*pprofAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sweep: pprof at http://%s/debug/pprof/\n", bound)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// -resume ignores the matrix flags entirely: the journal header's spec
	// is authoritative for an interrupted sweep, so a resume must not be
	// blocked by (or silently diverge from) whatever flags this invocation
	// happens to carry.
	parseSpec := func() dispatch.Spec {
		base := core.DefaultConfig(2024)
		base.Scale = *scale
		base.VMs = *vms
		base.Days = *days
		base.SampleEvery = sim.Time(*sample)
		spec, err := dispatch.ParseSpec(base, *scenarioList, *variantList, *seedList, sim.Time(*checkpoint))
		if err != nil {
			fatal(err)
		}
		return spec
	}
	openQueue := func() *dispatch.Queue {
		opts := dispatch.QueueOptions{Lease: *lease}
		if *resumeDir == "" {
			q, err := dispatch.NewQueue(pickJournalDir(*journalDir, *out), parseSpec(), opts)
			if err != nil {
				fatal(err)
			}
			return q
		}
		q, err := dispatch.Resume(*resumeDir, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sweep: %s\n", q.Recovered())
		return q
	}

	var res *scenario.SweepResult
	var err error
	start := time.Now()
	dispatched := *resumeDir != "" || *dispatchTo != ""
	if dispatched {
		res, err = drainQueue(ctx, openQueue(), *dispatchTo, *workers, *progress, *bundleDir, *traceOut, *engprofDir)
	} else {
		res, err = localSweep(ctx, parseSpec(), *workers, *diff, *progress, *branch, *bundleDir, *traceOut, *engprofDir)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("completed in %v\n\n", time.Since(start).Round(time.Millisecond))

	text := scenario.Comparative(res)
	fmt.Print(text)
	// Dispatched cells always carry digests; print the diff whenever we
	// have them or the user asked.
	diffText := ""
	if *diff || dispatched {
		diffText = scenario.ArtifactDiff(res)
		fmt.Print(diffText)
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		files := map[string]string{"report.txt": text, "runs.csv": scenario.RunsCSV(res)}
		if diffText != "" {
			files["artifact_diff.txt"] = diffText
		}
		var wrote []string
		for name, content := range files {
			if err := os.WriteFile(filepath.Join(*out, name), []byte(content), 0o644); err != nil {
				fatal(err)
			}
			wrote = append(wrote, name)
		}
		fmt.Printf("\nwrote %s to %s\n", strings.Join(wrote, ", "), *out)
	}

	for _, r := range res.Runs {
		if r.Err != "" {
			fatal(fmt.Errorf("run %s/%s seed %d: %s", r.Key.Scenario, r.Key.Variant, r.Key.Seed, r.Err))
		}
	}
}

// localSweep is the in-process path: the spec expanded into the bounded
// worker pool of scenario.Sweep — the same expansion the dispatched path
// serves cell by cell. With a bundle directory, every cell's artifact
// bodies are captured into a content-addressed store as the sweep runs
// (shared bodies stored once) and the bundle materializes at the end —
// byte-identical to the bundle a dispatched sweep of the same matrix
// produces.
func localSweep(ctx context.Context, spec dispatch.Spec, workers int,
	fingerprint, progress, branch bool, bundleDir, traceFile, engprofDir string) (*scenario.SweepResult, error) {
	m, err := spec.Matrix()
	if err != nil {
		return nil, err
	}
	m.Workers = workers
	m.Context = ctx
	m.Branch = branch
	var store *artifact.Store
	if bundleDir != "" {
		casDir, err := os.MkdirTemp("", "sweep-cas-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(casDir)
		// Scratch store: the blobs only live until the bundle materializes,
		// so skip the durable store's per-blob fsyncs.
		if store, err = artifact.OpenScratch(casDir); err != nil {
			return nil, err
		}
		m.Fingerprint = func(res *core.Result) (map[string]string, error) {
			bodies, err := sapsim.ArtifactSet(res)
			if err != nil {
				return nil, err
			}
			// The same render → digest → store sequence a dispatched
			// worker performs, minus the wire.
			return store.Capture(bodies)
		}
	} else if fingerprint {
		m.Fingerprint = func(res *core.Result) (map[string]string, error) {
			return sapsim.ArtifactDigests(res)
		}
	}
	// Profile export hangs off OnResult — deliberately not Fingerprint —
	// so the wall-clock-dependent profile bytes never enter the
	// byte-identity contract the three execution modes share.
	var profErr error
	var profMu sync.Mutex
	profiles := 0
	if engprofDir != "" {
		if err := os.MkdirAll(engprofDir, 0o755); err != nil {
			return nil, err
		}
		m.OnResult = func(key scenario.Key, res *core.Result) {
			if res.Profile == nil {
				return
			}
			blob, err := sapsim.EncodeProfileBytes(res.Profile)
			if err == nil {
				err = os.WriteFile(filepath.Join(engprofDir, profileFileName(key)), blob, 0o644)
			}
			profMu.Lock()
			if err != nil && profErr == nil {
				profErr = fmt.Errorf("engprof export %s/%s seed %d: %w", key.Scenario, key.Variant, key.Seed, err)
			}
			profiles++
			profMu.Unlock()
		}
	}
	total := len(m.Scenarios) * len(m.Variants) * len(m.Seeds)
	var callbacks []func(scenario.CellUpdate)
	var tracer *localTracer
	if traceFile != "" {
		tracer = newLocalTracer()
		callbacks = append(callbacks, tracer.onCell)
	}
	if progress {
		var done atomic.Int64
		callbacks = append(callbacks, func(u scenario.CellUpdate) {
			switch u.State {
			case scenario.CellFinished, scenario.CellFailed, scenario.CellCanceled:
				fmt.Fprintf(os.Stderr, "sweep: [%d/%d] %s/%s seed %d: %s\n",
					done.Add(1), total, u.Key.Scenario, u.Key.Variant, u.Key.Seed, u.State)
			}
		})
	}
	if len(callbacks) > 0 {
		m.OnCell = func(u scenario.CellUpdate) {
			for _, cb := range callbacks {
				cb(u)
			}
		}
	}
	fmt.Printf("sweeping %d scenarios x %d variants x %d seeds = %d runs in-process\n",
		len(m.Scenarios), len(m.Variants), len(m.Seeds), total)
	res, err := scenario.Sweep(m)
	if err != nil {
		return nil, err
	}
	if bundleDir != "" {
		if err := writeBundle(bundleDir, res, store); err != nil {
			return nil, err
		}
	}
	if tracer != nil {
		if err := exportSpans(traceFile, tracer.spans()); err != nil {
			return nil, err
		}
	}
	if engprofDir != "" {
		if profErr != nil {
			return nil, profErr
		}
		fmt.Fprintf(os.Stderr, "sweep: exported %d engine profiles to %s\n", profiles, engprofDir)
	}
	return res, nil
}

// localTracer derives the in-process sweep's cell-lifecycle spans from
// OnCell callbacks, using the same trace and span IDs the dispatched
// modes derive from the journal — the exported trace looks identical in
// Perfetto regardless of execution mode.
type localTracer struct {
	mu    sync.Mutex
	start time.Time
	cells map[int]*localCell
}

type localCell struct {
	key        scenario.Key
	start, end time.Time
	outcome    string
}

func newLocalTracer() *localTracer {
	return &localTracer{start: time.Now(), cells: map[int]*localCell{}}
}

// onCell runs on the sweep's worker goroutines; keep it cheap.
func (lt *localTracer) onCell(u scenario.CellUpdate) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	c := lt.cells[u.Index]
	if c == nil {
		c = &localCell{key: u.Key}
		lt.cells[u.Index] = c
	}
	switch u.State {
	case scenario.CellStarted:
		c.start = time.Now()
	case scenario.CellFinished:
		c.end, c.outcome = time.Now(), "done"
	case scenario.CellFailed:
		c.end, c.outcome = time.Now(), "failed"
	case scenario.CellCanceled:
		c.end, c.outcome = time.Now(), "canceled"
	}
}

func (lt *localTracer) spans() []trace.Span {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	var out []trace.Span
	for idx, c := range lt.cells {
		start, end := c.start, c.end
		if start.IsZero() {
			start = lt.start
		}
		if end.IsZero() {
			end = start
		}
		tid := dispatch.CellTraceID(c.key)
		cell := fmt.Sprintf("cell-%d", idx)
		out = append(out,
			trace.Span{Trace: tid, ID: cell, Name: "cell",
				Start: trace.Micros(lt.start), End: trace.Micros(end)},
			trace.Span{Trace: tid, ID: cell + "/q1", Parent: cell, Name: "queue-wait",
				Start: trace.Micros(lt.start), End: trace.Micros(start)},
			trace.Span{Trace: tid, ID: cell + "/a1", Parent: cell, Name: "attempt",
				Start: trace.Micros(start), End: trace.Micros(end),
				Attrs: map[string]string{"worker": "in-process", "outcome": c.outcome}},
		)
	}
	return out
}

// drainQueue is the dispatcher path, for a fresh or a resumed journal:
// with addr it serves the cells to external simworkers, without it they
// run in-process over loopback. Once drained, the bundle, trace and
// engine profiles are read back out of the journal and the store the
// workers uploaded into (a resume's workers re-upload any bodies its
// audit found missing or damaged, so the bundle is complete). The queue
// is closed — its journal fsynced — on every return, cancellation
// included.
func drainQueue(ctx context.Context, q *dispatch.Queue, addr string, workers int,
	progress bool, bundleDir, traceFile, engprofDir string) (*scenario.SweepResult, error) {
	defer q.Close()
	var res *scenario.SweepResult
	var err error
	if addr != "" {
		res, err = serveQueue(ctx, q, addr, progress)
	} else {
		opts := dispatch.LocalOptions{Workers: workers}
		if progress {
			opts.Logf = logfStderr
		}
		res, err = dispatch.RunLocal(ctx, q, opts)
	}
	if err == nil && bundleDir != "" {
		err = writeBundle(bundleDir, res, q.Store())
	}
	if err == nil && traceFile != "" {
		err = exportJournalTrace(traceFile, q.Dir())
	}
	if err == nil && engprofDir != "" {
		err = exportQueueProfiles(engprofDir, q)
	}
	return res, err
}

// profileFileName is the per-cell profile artifact name shared by the
// in-process and dispatched export paths (and parsed back by analyze).
func profileFileName(key scenario.Key) string {
	return fmt.Sprintf("%s__%s__%d.engprof.json", key.Scenario, key.Variant, key.Seed)
}

// exportQueueProfiles reads each terminal cell's self-profile blob out of
// the sweep's content-addressed store — where the workers shipped them,
// and where they outlive both cell completion and dispatcher crashes —
// and writes one JSON file per cell.
func exportQueueProfiles(dir string, q *dispatch.Queue) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n := 0
	err := q.EachProfile(func(key scenario.Key, rec dispatch.ProfileRecord) error {
		blob, err := q.Store().Get(rec.Digest)
		if err != nil {
			return fmt.Errorf("engprof export %s/%s seed %d: %w", key.Scenario, key.Variant, key.Seed, err)
		}
		n++
		return os.WriteFile(filepath.Join(dir, profileFileName(key)), blob, 0o644)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: exported %d engine profiles to %s\n", n, dir)
	return nil
}

// exportJournalTrace reconstructs the sweep's full trace from the
// journal (dispatcher-derived lifecycle spans merged with every
// worker-shipped engine span) and exports it as Chrome trace-event JSON.
func exportJournalTrace(path, journalDir string) error {
	spans, err := dispatch.TraceFromJournal(journalDir)
	if err != nil {
		return err
	}
	return exportSpans(path, spans)
}

// exportSpans writes spans as a Chrome trace-event file.
func exportSpans(path string, spans []trace.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: wrote trace (%d spans) to %s — load it at https://ui.perfetto.dev\n",
		len(spans), path)
	return nil
}

// writeBundle materializes the report bundle and prints what landed.
func writeBundle(dir string, res *scenario.SweepResult, store *artifact.Store) error {
	manifest, err := artifact.WriteBundle(dir, res, store)
	if err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	bodies := 0
	for _, c := range manifest.Cells {
		bodies += len(c.Artifacts)
	}
	blobs, _ := store.Len()
	fmt.Fprintf(os.Stderr, "sweep: bundled %d cells (%d artifact bodies, %d distinct blobs) into %s\n",
		len(manifest.Cells), bodies, blobs, dir)
	return nil
}

func serveQueue(ctx context.Context, q *dispatch.Queue, addr string, progress bool) (*scenario.SweepResult, error) {
	d := dispatch.NewDispatcher(q)
	if progress {
		d.Logf = logfStderr
	}
	d.Instrument(fleetmetrics.NewRegistry())
	serveCtx, stopServe := context.WithCancel(ctx)
	defer stopServe()
	bound, err := d.Serve(serveCtx, addr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("sweeping %d cells via dispatcher at %s (journal %s)\n",
		len(q.Snapshot()), bound, filepath.Join(q.Dir(), dispatch.JournalName))
	fmt.Printf("point workers here:  simworker -dispatcher http://%s\n", bound)
	fmt.Printf("report bundle at http://%s/bundle, fleet metrics at http://%s/metrics\n", bound, bound)
	return d.WaitDrained(ctx, 0)
}

// pickJournalDir resolves the -journal default: OUT/journal when -out is
// set, otherwise a fresh temp dir (printed, so the sweep stays resumable).
func pickJournalDir(journal, out string) string {
	if journal != "" {
		return journal
	}
	if out != "" {
		return filepath.Join(out, "journal")
	}
	dir, err := os.MkdirTemp("", "sweep-journal-*")
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweep: journaling to %s (use -journal to choose; -resume %s to recover)\n", dir, dir)
	return dir
}

func logfStderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
