package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"sapsim"
	"sapsim/internal/engprof"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

// runCell is one sapsim cell as a user runs it: build → run → the 18
// Experiment.Compute calls → SHA-256 digests of the bodies →
// scenario.CheckInvariants. The digest step is the one
// sapsim.ArtifactDigests applies, taken over the bodies already computed
// so no artifact is computed twice; the golden comparison proves the two
// agree.
func runCell(cfg sapsim.Config, tc *opTrace) (*sapsim.Result, map[string]string, error) {
	res, err := buildRun(cfg, tc)
	if err != nil {
		return nil, nil, err
	}
	digests, err := artifactDigests(res, tc)
	if err != nil {
		return nil, nil, err
	}
	err = tc.span("scenario.invariants", func(*opTrace) error { return scenario.CheckInvariants(res) })
	if err != nil {
		return res, digests, fmt.Errorf("invariants: %w", err)
	}
	return res, digests, nil
}

// buildRun builds cfg's session and runs it to the horizon.
func buildRun(cfg sapsim.Config, tc *opTrace) (*sapsim.Result, error) {
	s, err := sapsim.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := tc.span("sapsim.build", func(*opTrace) error { return s.Build() }); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	if err := tc.span("sapsim.run", func(*opTrace) error { return s.RunToCompletion() }); err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	return s.Result()
}

// artifactDigests computes every experiment over res and digests the
// bodies, artifact ID → hex SHA-256.
func artifactDigests(res *sapsim.Result, tc *opTrace) (map[string]string, error) {
	texts := make(map[string]string)
	for _, exp := range sapsim.Experiments() {
		err := tc.span("sapsim.artifact."+exp.ID, func(*opTrace) error {
			art, err := exp.Compute(res)
			if err != nil {
				return fmt.Errorf("%s: %w", exp.ID, err)
			}
			texts[exp.ID] = art.Text
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	digests := make(map[string]string, len(texts))
	tc.span("sapsim.digests", func(*opTrace) error {
		for id, text := range texts {
			sum := sha256.Sum256([]byte(text))
			digests[id] = hex.EncodeToString(sum[:])
		}
		return nil
	})
	return digests, nil
}

// diffDigests describes how got differs from want, or returns "".
func diffDigests(got, want map[string]string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d digests, want %d", len(got), len(want))
	}
	for id, sum := range want {
		if got[id] != sum {
			return fmt.Sprintf("%s digest %.12s, want %.12s", id, got[id], sum)
		}
	}
	return ""
}

// engineLayers records the engine's own phase counters (Result.Profile)
// for one cell. runSpan is the outside span around the run;
// engprof.coverage is the profiler's accounted time over that span,
// leaving out the two top-level phases timed outside the run loop: build
// and snapshot capture between run segments.
func engineLayers(acc *accumulator, p *sapsim.Profile, runSpan time.Duration) {
	if p == nil {
		return
	}
	ph := func(name string) engprof.Counter { return p.Phases[name] }
	sec := func(name string) float64 { return float64(ph(name).Nanos) / 1e9 }
	ops := func(name string) float64 { return float64(ph(name).Ops) }
	acc.obs("core.sample_hosts_s", sec("sample/hosts"))
	acc.obs("core.sample_vms_s", sec("sample/vms"))
	acc.obs("core.samples_appended", ops("sample/hosts")+ops("sample/vms"))
	acc.obs("drs.scan_s", sec("drs/scan"))
	acc.obs("drs.hosts_scanned", ops("drs/scan"))
	acc.obs("drs.decide_s", sec("drs/decide"))
	acc.obs("drs.migrations", ops("drs/decide"))
	acc.obs("nova.filter_s", sec("sched/filter"))
	acc.obs("nova.candidates", ops("sched/filter"))
	acc.obs("nova.weigh_s", sec("sched/weigh"))
	acc.obs("nova.claim_s", sec("sched/claim"))
	acc.obs("nova.claim_attempts", ops("sched/claim"))
	acc.obs("core.resize_s", sec("resize"))
	acc.obs("core.inject_s", sec("inject"))
	acc.obs("sim.events", float64(p.Events))
	if runSpan > 0 {
		acc.obs("engprof.coverage", float64(p.AccountedNanos-ph("build").Nanos-ph("snapshot/encode").Nanos)/float64(runSpan.Nanoseconds()))
	}
	for name, c := range p.Phases {
		if phase, ok := engprof.PhaseByName(name); ok && !phase.Nested() {
			acc.obs("engprof.phase."+name, float64(c.Nanos)/1e9)
		}
	}
}

// resultLayers records what a finished cell's Result says about the
// scheduler's claim yield and the telemetry store's size.
func resultLayers(acc *accumulator, res *sapsim.Result) {
	if res.Profile != nil {
		if a := res.Profile.Phases["sched/claim"].Ops; a > 0 {
			acc.obs("nova.claim_yield", float64(res.SchedStats.Scheduled)/float64(a))
		}
	}
	acc.obs("telemetry.series", float64(res.Store.SeriesCount()))
	acc.obs("telemetry.samples", float64(res.Store.SampleCount()))
}

// synthIngest splits the cell's sampling cost from outside, after the run:
// esx.snapshot_ns is esx.Host.Snapshot on every host at fresh instants
// past the horizon (so the snapshot cache always misses), and
// telemetry.append_ns is Appender.Append+Commit of one sample per series
// into a scratch store, using the cell's own label sets, after a first
// untimed round creates the series. core.synth_share weighs the two by the
// cell's own snapshot-cache misses and appended samples.
func synthIngest(acc *accumulator, res *sapsim.Result) {
	const rounds = 3
	hosts := res.Fleet.Hosts()
	step := res.Config.SampleEvery
	start := time.Now()
	for r := 1; r <= rounds; r++ {
		at := res.Config.Horizon() + sim.Time(r)*step
		for _, h := range hosts {
			h.Snapshot(at, step)
		}
	}
	snapNs := float64(time.Since(start).Nanoseconds()) / float64(rounds*max(len(hosts), 1))

	var series []*telemetry.Series
	for _, m := range res.Store.Metrics() {
		series = append(series, res.Store.Select(m)...)
	}
	app := telemetry.NewStore().Appender()
	for r := 0; r <= rounds; r++ {
		if r == 1 {
			start = time.Now()
		}
		for _, s := range series {
			app.Append(s.Metric, s.Labels, sim.Time(r)*step, float64(r))
		}
		if _, err := app.Commit(); err != nil {
			return
		}
	}
	appendNs := float64(time.Since(start).Nanoseconds()) / float64(rounds*max(len(series), 1))
	acc.obs("esx.snapshot_ns", snapNs)
	acc.obs("telemetry.append_ns", appendNs)

	if p := res.Profile; p != nil {
		var misses float64
		for _, o := range p.Owners {
			if o.Owner == "esx/snapshot-cache/miss" {
				misses = float64(o.Ops)
			}
		}
		samples := float64(p.Phases["sample/hosts"].Ops + p.Phases["sample/vms"].Ops)
		synth, ingest := misses*snapNs, samples*appendNs
		if synth+ingest > 0 {
			acc.obs("core.synth_share", synth/(synth+ingest))
			acc.obs("core.synth_s", synth/1e9)
			acc.obs("core.ingest_s", ingest/1e9)
		}
	}
}

// snapshotProbe runs cfg to the midpoint of its horizon, captures and
// encodes a snapshot, then decodes it, restores a fresh session from it and
// runs that to the end. The resumed run's digests must equal want (the
// cold run's), which is the resumed leg of three-mode identity.
func snapshotProbe(acc *accumulator, cfg sapsim.Config, want map[string]string) error {
	s, err := sapsim.NewSession(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	ticks := int(cfg.Horizon() / cfg.SampleEvery)
	if _, err := s.Step(max(ticks/2, 1)); err != nil {
		return err
	}
	start := time.Now()
	snap, err := s.Snapshot()
	if err != nil {
		return err
	}
	blob, err := sapsim.EncodeSnapshotBytes(snap)
	if err != nil {
		return err
	}
	encode := time.Since(start)

	start = time.Now()
	decoded, err := sapsim.DecodeSnapshotBytes(blob)
	if err != nil {
		return err
	}
	r, err := sapsim.ResumeFromSnapshot(cfg, decoded)
	if err != nil {
		return err
	}
	defer r.Close()
	if err := r.Build(); err != nil {
		return err
	}
	restore := time.Since(start)
	acc.obs("snapshot.encode_s", encode.Seconds())
	acc.obs("snapshot.bytes", float64(len(blob)))
	acc.obs("snapshot.restore_s", restore.Seconds())

	if err := r.RunToCompletion(); err != nil {
		return err
	}
	res, err := r.Result()
	if err != nil {
		return err
	}
	got, err := artifactDigests(res, nil)
	if err != nil {
		return err
	}
	if d := diffDigests(got, want); d != "" {
		return fmt.Errorf("resumed run differs from the cold run: %s", d)
	}
	return nil
}
