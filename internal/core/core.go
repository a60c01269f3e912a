// Package core orchestrates full experiments: build the region, generate
// the calibrated workload, drive the Nova scheduler and DRS through a
// discrete-event simulation of the observation window, and collect the
// telemetry the paper's figures are computed from.
//
// The sampler writes host and VM metrics straight into the telemetry store
// using the Table 4 metric names. The HTTP exporter → scraper path is the
// same data plane and is exercised separately (internal/scrape tests and
// examples/telemetry-pipeline); sampling in-process keeps 30-day runs fast.
package core

import (
	"errors"
	"math/rand/v2"
	"sort"

	"sapsim/internal/analysis"
	"sapsim/internal/drs"
	"sapsim/internal/engprof"
	"sapsim/internal/esx"
	"sapsim/internal/events"
	"sapsim/internal/exporter"
	"sapsim/internal/nova"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
	"sapsim/internal/workload"
)

// MetricHostDiskPct is a derived convenience metric (percentage form of the
// Table 4 diskspace gauge) recorded alongside the catalog metrics so that
// heatmap analysis does not need per-node capacity lookups.
const MetricHostDiskPct = "vrops_hostsystem_diskspace_usage_percentage"

// Config describes one experiment.
type Config struct {
	// Seed drives all randomness; equal seeds give equal runs.
	Seed uint64
	// Scale shrinks the studied region (1.0 ≈ 1,823 hypervisors).
	Scale float64
	// VMs is the target initial population (the paper's region: ~48,000).
	VMs int
	// Days is the observation window (the paper: 30).
	Days int
	// SampleEvery is the host telemetry interval (production: 30–300 s).
	SampleEvery sim.Time
	// VMSampleEvery is the per-VM telemetry interval; per-VM series
	// dominate memory so they default coarser.
	VMSampleEvery sim.Time
	// Scheduler configures the Nova pipeline.
	Scheduler nova.Config
	// ESX configures hypervisor policy (overcommit etc.).
	ESX esx.Config
	// DRS enables intra-BB rebalancing at DRSEvery intervals.
	DRS      bool
	DRSEvery sim.Time
	// CrossBB enables the external cross-BB rebalancer (daily).
	CrossBB bool
	// RecordVMMetrics enables per-VM series (needed for Fig. 14).
	RecordVMMetrics bool
	// ContentionFeed updates the scheduler's per-BB contention view at
	// every host sample, powering the contention-aware weigher.
	ContentionFeed bool
	// HolisticNodeFit appends the NodeFitFilter (wired to the live
	// fleet), collapsing the two-layer BB→node split into one node-aware
	// decision — the Sec. 7 "holistic scheduling" ablation (A7).
	HolisticNodeFit bool
	// ResizeRate is the expected number of resize operations per VM over
	// a 30-day window (resize is one of the dataset's scheduling-relevant
	// events). Zero disables resizes.
	ResizeRate float64
	// ArrivalPhases modulate the generated churn arrival process (demand
	// surges, lulls, flavor-mix shifts). Empty keeps the base workload —
	// and its RNG draw sequence — byte-identical.
	ArrivalPhases []workload.Phase
	// Injectors are scenario hooks invoked after the simulation is
	// assembled but before the engine runs; each may schedule
	// operational events (host failures, drains, resize waves) onto the
	// engine. See internal/scenario for the declarative layer on top.
	Injectors []Injector
}

// DefaultConfig returns a laptop-scale replica of the paper's setup: 5% of
// the region, 30 days, 5-minute host sampling.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:            seed,
		Scale:           0.05,
		VMs:             2400,
		Days:            30,
		SampleEvery:     5 * sim.Minute,
		VMSampleEvery:   sim.Hour,
		Scheduler:       nova.DefaultConfig(),
		ESX:             esx.DefaultConfig(),
		DRS:             true,
		DRSEvery:        sim.Hour,
		RecordVMMetrics: true,
		ResizeRate:      0.03,
	}
}

// Result carries everything an analysis needs after a run.
type Result struct {
	Config    Config
	Region    *topology.Region
	Fleet     *esx.Fleet
	Store     *telemetry.Store
	Scheduler *nova.Scheduler

	// VMs is every VM instance that entered the system (placed or not).
	VMs []*vmmodel.VM
	// Lifetimes holds the planned lifetime per VM (the paper collected
	// lifetimes retrospectively; we know them exactly).
	Lifetimes []analysis.LifetimeRecord
	// PlacementFailures counts NoValidHost outcomes.
	PlacementFailures int
	// DRSMigrations and CrossBBMoves count rebalancing activity.
	DRSMigrations int
	CrossBBMoves  int
	// DRS is the intra-BB rebalancer instance (nil when Config.DRS is
	// off); injectors may attach observation hooks to it.
	DRS *drs.DRS
	// Resizes counts completed resize operations.
	Resizes int
	// Events is the scheduling-relevant event stream (Sec. 4).
	Events *events.Log
	// SchedStats snapshots the scheduler counters at the end.
	SchedStats nova.Stats
	// Profile is the engine self-profiler's per-phase wall-time and work
	// attribution for this cell, refreshed on every Result call. Its
	// values are wall-clock measurements — deliberately excluded from the
	// golden artifact set — while its collection never influences event
	// order (see internal/engprof).
	Profile *engprof.Profile
}

// Horizon reports the simulated window.
func (c Config) Horizon() sim.Time { return sim.Time(c.Days) * sim.Day }

// Validate sanity-checks the configuration.
func (c Config) Validate() error {
	if c.Scale <= 0 {
		return errors.New("core: non-positive scale")
	}
	if c.VMs <= 0 {
		return errors.New("core: non-positive VM count")
	}
	if c.Days <= 0 {
		return errors.New("core: non-positive days")
	}
	if c.SampleEvery <= 0 {
		return errors.New("core: non-positive sample interval")
	}
	if c.RecordVMMetrics && c.VMSampleEvery <= 0 {
		return errors.New("core: non-positive VM sample interval")
	}
	return nil
}

// Run executes the experiment in one blocking call: NewSimulation driven
// straight to the horizon. The step-driven Simulation form is the primary
// API; Run remains for callers that only need the finished Result.
func Run(cfg Config) (*Result, error) {
	s, err := NewSimulation(cfg, Hooks{})
	if err != nil {
		return nil, err
	}
	if err := s.AdvanceTo(cfg.Horizon(), nil); err != nil {
		return nil, err
	}
	return s.Result(), nil
}

// pickLive selects a random live VM deterministically (sorted key order).
func pickLive(live map[vmmodel.ID]*vmmodel.VM, rng *rand.Rand) *vmmodel.VM {
	if len(live) == 0 {
		return nil
	}
	ids := make([]string, 0, len(live))
	for id := range live {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	return live[vmmodel.ID(ids[rng.IntN(len(ids))])]
}

// sampler writes telemetry into the result store through a batched
// appender: each sampling sweep buffers every (metric, host/VM) sample and
// lands in one commit — one store-lock acquisition instead of one per
// sample. It runs on the engine goroutine; nothing else writes the store
// during a run.
type sampler struct {
	res *Result
	cfg Config
	app *telemetry.Appender
	// hostLabels caches label sets; label construction dominates
	// otherwise.
	hostLabels map[topology.NodeID]telemetry.Labels
	vmLabels   map[vmmodel.ID]telemetry.Labels
	// prof receives appended-sample counts: the sampling phases' work-unit
	// proxy (each append is one buffered sample landing in the store).
	prof *engprof.Collector
}

func newSampler(res *Result, cfg Config, prof *engprof.Collector) *sampler {
	return &sampler{
		res:        res,
		cfg:        cfg,
		app:        res.Store.Appender(),
		hostLabels: make(map[topology.NodeID]telemetry.Labels),
		vmLabels:   make(map[vmmodel.ID]telemetry.Labels),
		prof:       prof,
	}
}

func (s *sampler) labelsFor(h *esx.Host) telemetry.Labels {
	if l, ok := s.hostLabels[h.Node.ID]; ok {
		return l
	}
	l := telemetry.MustLabels(
		"hostsystem", string(h.Node.ID),
		"cluster", string(h.Node.BB.ID),
		"datacenter", h.Node.Datacenter().Name,
	)
	s.hostLabels[h.Node.ID] = l
	return l
}

func (s *sampler) sampleHosts(now sim.Time) {
	interval := s.cfg.SampleEvery
	var ops int64
	s.res.Fleet.EachHost(func(h *esx.Host) {
		if h.Node.Maintenance {
			return
		}
		l := s.labelsFor(h)
		m := h.Snapshot(now, interval)
		app := func(metric string, v float64) {
			s.app.Append(metric, l, now, v)
			ops++
		}
		app(exporter.MetricHostCPUUtil, m.CPUUtilPct)
		app(exporter.MetricHostMemUsage, m.MemUsagePct)
		app(exporter.MetricHostNetTx, m.TxKbps)
		app(exporter.MetricHostNetRx, m.RxKbps)
		app(exporter.MetricHostDiskUsage, m.StorageUsedGB)
		app(MetricHostDiskPct, m.StoragePct(h.Node.Capacity.StorageGB))
		app(exporter.MetricHostCPUCont, m.CPUContentionPct)
		app(exporter.MetricHostCPUReady, m.CPUReadyMillis)

		if s.cfg.ContentionFeed {
			s.res.Scheduler.SetContention(h.Node.BB.ID, m.CPUContentionPct)
		}
	})
	// Out-of-order cannot occur: the ticker is strictly monotonic. Ignore
	// the error to keep the hot path lean.
	_, _ = s.app.Commit()
	if s.prof != nil {
		s.prof.AddOps(engprof.PhaseHostSample, ops)
	}
}

// sampleVMs walks hosts and each host's VMs in ID order, so the series a
// sweep creates — and with them Dump and encoded snapshots — come out in
// the same order on every run with the same seed. live holds exactly the
// resident VMs; it only supplies the instance count.
func (s *sampler) sampleVMs(now sim.Time, live map[vmmodel.ID]*vmmodel.VM) {
	var ops int64
	s.res.Fleet.EachHost(func(h *esx.Host) {
		// When the VM sweep shares an instant with the host sweep this
		// reads the snapshot cache rather than re-walking the host's VMs.
		contention := h.Snapshot(now, s.cfg.VMSampleEvery).CPUContentionPct
		h.EachVM(func(vm *vmmodel.VM) {
			l, ok := s.vmLabels[vm.ID]
			if !ok {
				l = telemetry.MustLabels(
					"virtualmachine", string(vm.ID),
					"flavor", vm.Flavor.Name,
					"project", vm.Project,
				)
				s.vmLabels[vm.ID] = l
			}
			u := h.VMSnapshot(vm, now, s.cfg.VMSampleEvery, contention)
			s.app.Append(exporter.MetricVMCPURatio, l, now, u.CPUUsageRatio)
			s.app.Append(exporter.MetricVMMemRatio, l, now, u.MemUsageRatio)
			ops += 2
		})
	})
	s.app.Append(exporter.MetricInstancesTotal, telemetry.Labels{}, now, float64(len(live)))
	_, _ = s.app.Commit()
	if s.prof != nil {
		s.prof.AddOps(engprof.PhaseVMSample, ops+1)
	}
}
