package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// runBench runs the benchmark in-process against the checkout above this
// directory and returns its exit code and final JSON line.
func runBench(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	args = append([]string{"--root", "..", "--out", t.TempDir()}, args...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	out := strings.TrimSpace(stdout.String())
	var res result
	if code != 2 {
		lines := strings.Split(out, "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not a result: %v\n%s\n%s", err, out, stderr.String())
		}
	}
	return code, res, out + "\n" + stderr.String()
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var e2e []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.metricDef)
	}
	if got, want := fmt.Sprint(e2e), fmt.Sprint(endToEnd); got != want {
		t.Errorf("BENCHMARK.json end_to_end = %s, program reports %s", got, want)
	}
	if got, want := fmt.Sprint(bj.PerLayer), fmt.Sprint(perLayer()); got != want {
		t.Errorf("BENCHMARK.json per_layer = %s, program reports %s", got, want)
	}
	for _, w := range bj.Workloads {
		if _, err := newWorkload(w.Name, 1, true); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

// TestTinyWorkloadsEmitEveryMetric runs every workload at tiny size —
// placement-churn too, which BENCHMARK.json leaves out — untraced and
// traced, and checks the result names every metric with its unit and that
// every op was correct.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range []string{"paper-cell", "placement-churn", "dispatched-sweep", "store-query"} {
		for _, traced := range []string{"0", "1"} {
			t.Run(w+"/trace"+traced, func(t *testing.T) {
				code, res, out := runBench(t, "--workload", w, "--seed", "3",
					"--seconds", "0.3", "--trace", traced, "--size", "tiny")
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out)
				}
				want := endToEnd
				if traced == "1" {
					want = perLayer()
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if traced == "0" {
					for name, v := range res.Metrics {
						if v.Value <= 0 {
							t.Errorf("end-to-end metric %s = %g, want > 0", name, v.Value)
						}
					}
				}
			})
		}
	}
}

// TestInjectedDelayShiftsP50 proves the gate sees a slowdown: a delay
// inside the benchmark's own op wrapper, equal to the measured median,
// must move op_s.p50 past its bound.
func TestInjectedDelayShiftsP50(t *testing.T) {
	var bound float64
	for _, m := range readBenchmarkJSON(t).EndToEnd {
		if m.Name == "op_s.p50" {
			bound = m.Bound
		}
	}
	args := []string{"--workload", "paper-cell", "--seed", "5", "--seconds", "1", "--size", "tiny"}
	_, base, out := runBench(t, args...)
	p50 := base.Metrics["op_s.p50"].Value
	if p50 <= 0 {
		t.Fatalf("no baseline p50\n%s", out)
	}
	delay := fmt.Sprintf("%dus", int(p50*1e6))
	_, slow, out := runBench(t, append(args, "--inject-delay", delay)...)
	ratio := slow.Metrics["op_s.p50"].Value / p50
	if ratio-1 <= bound {
		t.Fatalf("op_s.p50 moved by %.3f with a %s delay, bound %.3f\n%s", ratio-1, delay, bound, out)
	}
}

// TestWrongGoldenCountsAsFailure corrupts one expected golden digest: on
// both workloads that check the golden cell in set-up, every set-up must
// then count as failed, and the run must exit 1 while still printing its
// result.
func TestWrongGoldenCountsAsFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-size golden cells")
	}
	data, err := os.ReadFile(filepath.Join("..", "testdata", "artifact_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	id, sum, _ := strings.Cut(lines[0], " ")
	lines[0] = id + " " + strings.Repeat("0", len(sum))
	golden := filepath.Join(t.TempDir(), "digests.txt")
	if err := os.WriteFile(golden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"paper-cell", "dispatched-sweep"} {
		t.Run(w, func(t *testing.T) {
			code, res, out := runBench(t, "--workload", w, "--seed", "1", "--seconds", "0.1",
				"--golden", golden)
			if code != 1 || res.Correct || res.Failed < setupReps {
				t.Fatalf("exit %d, result correct=%t failed=%d attempted=%d, want exit 1 and %d failed\n%s",
					code, res.Correct, res.Failed, res.Attempted, setupReps, out)
			}
			if !strings.Contains(out, "golden mismatch: "+id) {
				t.Errorf("output does not name the mismatched artifact %s\n%s", id, out)
			}
		})
	}
}
