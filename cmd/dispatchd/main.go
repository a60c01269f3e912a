// Command dispatchd is the durable sweep dispatcher daemon: it expands a
// (scenario × variant × seed) matrix into per-cell jobs journaled under
// -dir, serves them to simworker processes over the wire protocol
// (/book, /progress, /complete), and merges the collected metrics and
// artifact digests into the comparative report once every cell is done.
//
// Kill it at any point: restarting with -resume replays the journal, keeps
// every finished cell, and re-queues the ones that were in flight. The
// merged report of a killed-and-resumed sweep is byte-identical to a
// single-process `sweep` run of the same matrix.
//
// Workers upload every artifact body into the dispatcher's
// content-addressed store (under -dir, deduplicated by digest), so the
// daemon serves a browsable report bundle at /bundle while the sweep runs
// and can materialize it to disk with -bundle once drained.
//
// Usage:
//
//	dispatchd -dir DIR [-addr :9090] [-scale F] [-vms N] [-days N] \
//	          [-sample D] [-scenarios a,b] [-variants x,y] [-seeds 7,11] \
//	          [-checkpoint D] [-lease D] [-timeout D] [-out DIR] [-bundle DIR] \
//	          [-trace FILE] [-pprof ADDR]
//	dispatchd -dir DIR -resume [-addr :9090] [-lease D] [-timeout D]
//
// -trace exports the drained sweep's cell-lifecycle trace (Chrome
// trace-event JSON reconstructed from the journal, including worker-shipped
// engine-phase spans); -pprof serves net/http/pprof on its own listener for
// profiling the daemon mid-sweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

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
		addr       = flag.String("addr", ":9090", "listen address for the dispatcher protocol")
		dir        = flag.String("dir", "", "sweep directory holding the journal (required)")
		resume     = flag.Bool("resume", false, "resume the journal in -dir instead of starting a new sweep")
		scale      = flag.Float64("scale", 0.02, "region scale (1.0 = 1,823 hypervisors)")
		vms        = flag.Int("vms", 960, "initial VM population per run")
		days       = flag.Int("days", 10, "observation window in days")
		sample     = flag.Duration("sample", 15*time.Minute, "host sampling interval")
		scenarios  = flag.String("scenarios", "", "comma-separated scenario names (default: all builtin)")
		variants   = flag.String("variants", "default", "comma-separated variant names (\"all\" = every builtin)")
		seeds      = flag.String("seeds", "2024", "comma-separated seeds")
		checkpoint = flag.Duration("checkpoint", 6*time.Hour, "simulated-time cadence of workers' mid-run snapshots")
		lease      = flag.Duration("lease", dispatch.DefaultLease, "heartbeat deadline before a cell re-books")
		timeout    = flag.Duration("timeout", 0, "wall-clock limit for the whole sweep (0 = none)")
		out        = flag.String("out", "", "report directory (default: -dir)")
		bundle     = flag.String("bundle", "", "materialize the digest-verified report bundle into this directory once drained")
		traceOut   = flag.String("trace", "", "export the sweep's cell-lifecycle trace (Chrome trace-event JSON, Perfetto-loadable) to this file once drained")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof at this address (e.g. 127.0.0.1:6060; empty = off)")
		progress   = flag.Bool("progress", true, "log queue transitions to stderr")
	)
	flag.Parse()
	if *dir == "" {
		fatal(fmt.Errorf("-dir is required"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *pprofAddr != "" {
		bound, err := pprofserve.Serve(*pprofAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dispatchd: pprof at http://%s/debug/pprof/\n", bound)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := dispatch.QueueOptions{Lease: *lease}
	var q *dispatch.Queue
	var err error
	if *resume {
		q, err = dispatch.Resume(*dir, opts)
		if err == nil {
			fmt.Fprintf(os.Stderr, "dispatchd: %s\n", q.Recovered())
		}
	} else {
		base := core.DefaultConfig(2024)
		base.Scale = *scale
		base.VMs = *vms
		base.Days = *days
		base.SampleEvery = sim.Time(*sample)
		spec, serr := dispatch.ParseSpec(base, *scenarios, *variants, *seeds, sim.Time(*checkpoint))
		if serr != nil {
			fatal(serr)
		}
		q, err = dispatch.NewQueue(*dir, spec, opts)
	}
	if err != nil {
		fatal(err)
	}
	defer q.Close()

	d := dispatch.NewDispatcher(q)
	if *progress {
		d.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	d.Instrument(fleetmetrics.NewRegistry())
	bound, err := d.Serve(ctx, *addr)
	if err != nil {
		fatal(err)
	}
	total := len(q.Snapshot())
	fmt.Printf("dispatchd: serving %d cells at %s (journal %s)\n",
		total, bound, filepath.Join(*dir, dispatch.JournalName))
	fmt.Printf("dispatchd: browsable report bundle at http://%s/bundle\n", bound)
	fmt.Printf("dispatchd: fleet metrics at http://%s/metrics\n", bound)

	res, err := d.WaitDrained(ctx, 0)
	if err != nil {
		fatal(err)
	}

	text := scenario.Comparative(res)
	diff := scenario.ArtifactDiff(res)
	fmt.Print(text)
	fmt.Print(diff)

	reportDir := *out
	if reportDir == "" {
		reportDir = *dir
	}
	if err := os.MkdirAll(reportDir, 0o755); err != nil {
		fatal(err)
	}
	for name, content := range map[string]string{
		"report.txt":        text,
		"runs.csv":          scenario.RunsCSV(res),
		"artifact_diff.txt": diff,
	} {
		if err := os.WriteFile(filepath.Join(reportDir, name), []byte(content), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("wrote report.txt, runs.csv, artifact_diff.txt to %s\n", reportDir)

	if *bundle != "" {
		if _, err := artifact.WriteBundle(*bundle, res, q.Store()); err != nil {
			fatal(err)
		}
		fmt.Printf("materialized report bundle in %s\n", *bundle)
	}

	if *traceOut != "" {
		spans, err := dispatch.TraceFromJournal(*dir)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteChromeTrace(f, spans); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote trace (%d spans) to %s — load it at https://ui.perfetto.dev\n", len(spans), *traceOut)
	}

	for _, r := range res.Runs {
		if r.Err != "" {
			fatal(fmt.Errorf("run %s/%s seed %d: %s", r.Key.Scenario, r.Key.Variant, r.Key.Seed, r.Err))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dispatchd:", err)
	os.Exit(1)
}
