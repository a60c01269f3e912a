package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"sapsim"
)

// metricDef is one reported metric: its name, unit and which direction is
// better. BENCHMARK.json lists the same catalogue; the self-tests keep the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of sapsim sees, reported by untraced runs.
var endToEnd = []metricDef{
	{"op_s.p50", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer is the per-layer catalogue reported by traced runs. Times are
// means per op (per cell on the dispatched workload) over the ops in which
// the layer ran; a layer a workload never reaches reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"sapsim.build_s", "s", "lower"},
		{"sapsim.run_s", "s", "lower"},
	}
	for _, exp := range sapsim.Experiments() {
		defs = append(defs, metricDef{"sapsim.artifact." + exp.ID + "_s", "s", "lower"})
	}
	return append(defs,
		metricDef{"sapsim.digests_s", "s", "lower"},
		metricDef{"scenario.invariants_s", "s", "lower"},
		metricDef{"core.sample_hosts_s", "s", "lower"},
		metricDef{"core.sample_vms_s", "s", "lower"},
		metricDef{"core.samples_appended", "count", "lower"},
		metricDef{"drs.scan_s", "s", "lower"},
		metricDef{"drs.hosts_scanned", "count", "lower"},
		metricDef{"drs.decide_s", "s", "lower"},
		metricDef{"drs.migrations", "count", "lower"},
		metricDef{"nova.filter_s", "s", "lower"},
		metricDef{"nova.candidates", "count", "lower"},
		metricDef{"nova.weigh_s", "s", "lower"},
		metricDef{"nova.claim_s", "s", "lower"},
		metricDef{"nova.claim_attempts", "count", "lower"},
		metricDef{"nova.claim_yield", "ratio", "higher"},
		metricDef{"core.resize_s", "s", "lower"},
		metricDef{"core.inject_s", "s", "lower"},
		metricDef{"sim.events", "count", "lower"},
		metricDef{"engprof.coverage", "ratio", "higher"},
		metricDef{"esx.snapshot_ns", "ns", "lower"},
		metricDef{"telemetry.append_ns", "ns", "lower"},
		metricDef{"core.synth_share", "ratio", "lower"},
		metricDef{"snapshot.encode_s", "s", "lower"},
		metricDef{"snapshot.bytes", "bytes", "lower"},
		metricDef{"snapshot.restore_s", "s", "lower"},
		metricDef{"dispatch.queue_wait_s", "s", "lower"},
		metricDef{"dispatch.overhead_s", "s", "lower"},
		metricDef{"dispatch.snapshot_upload_s", "s", "lower"},
		metricDef{"dispatch.artifact_render_s", "s", "lower"},
		metricDef{"dispatch.artifact_upload_s", "s", "lower"},
		metricDef{"dispatch.journal_append_s", "s", "lower"},
		metricDef{"dispatch.journal_fsyncs", "count", "lower"},
		metricDef{"dispatch.heartbeats", "count", "lower"},
		metricDef{"dispatch.rebooks", "count", "lower"},
		metricDef{"artifact.dedup_ratio", "ratio", "higher"},
		metricDef{"telemetry.select_s", "s", "lower"},
		metricDef{"telemetry.series_selected", "count", "lower"},
		metricDef{"promql.eval_s", "s", "lower"},
		metricDef{"telemetry.series", "count", "lower"},
		metricDef{"telemetry.samples", "count", "lower"},
		metricDef{"trace.coverage", "ratio", "higher"},
		metricDef{"trace.overhead", "ratio", "lower"},
	)
}

// median returns the middle of xs (the mean of the two middles for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest of a fixed ladder of percentiles that leaves at
// least ten samples beyond it, with its value by nearest rank. ok is false
// when the op count supports none of them.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(s))*(1-p/100) < 10 {
			continue
		}
		rank := int(math.Ceil(p / 100 * float64(len(s))))
		return p, s[rank-1], true
	}
	return 0, 0, false
}

// resetPeakRSS restarts the process's resident-set high-water mark from
// its current size, so the peak read after the timed loop covers the loop
// (with whatever set-up left resident) rather than a set-up's transient
// peak. Kernels without the interface keep the lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// provenance is what every result carries so a number can be traced back
// to the machine, toolchain, source and inputs that produced it.
type provenance struct {
	GoVersion    string   `json:"go_version"`
	NumCPU       int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	CPUModel     string   `json:"cpu_model"`
	GitCommit    string   `json:"git_commit"`
	SourceSHA256 string   `json:"source_sha256"`
	Args         []string `json:"args"`
	Seeds        []uint64 `json:"workload_seeds"`
	Configs      any      `json:"configs"`
}

func newProvenance(root string, args []string, seeds []uint64, configs any) provenance {
	return provenance{
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GitCommit:    gitCommit(),
		SourceSHA256: sourceDigest(root),
		Args:         args,
		Seeds:        seeds,
		Configs:      configs,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reports the revision the toolchain stamped into the binary,
// marked "+dirty" when the tree had uncommitted changes. A checkout that is
// not a git repository has none, and the source digest identifies the code
// instead.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unavailable"
	}
	rev, dirty := "unavailable", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// sourceDigest hashes every Go source, module file and testdata file under
// root (hidden directories skipped), paths included, in walk order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" &&
			!strings.Contains(filepath.ToSlash(rel), "testdata/") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
