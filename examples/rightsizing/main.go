// Rightsizing: the paper's "qualified right-sizing" guidance (Sec. 7) as a
// tool. Run a window, compute each VM's mean CPU and memory usage from
// telemetry, and recommend a smaller flavor where the allocation is
// demonstrably oversized — quantifying how many vCPUs the region could
// reclaim.
package main

import (
	"fmt"
	"log"
	"sort"

	"sapsim"
	"sapsim/internal/analysis"
	"sapsim/internal/exporter"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
	"sapsim/internal/vmmodel"
)

func main() {
	cfg := sapsim.DefaultConfig(11)
	cfg.Scale = 0.02
	cfg.VMs = 500
	cfg.Days = 7
	cfg.SampleEvery = 30 * sim.Minute
	cfg.VMSampleEvery = sim.Hour

	res, err := sapsim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	stats := res.Scheduler.Stats()
	fmt.Printf("run: %d placements (%d failed), %d migrations, %d resizes\n\n",
		stats.Scheduled, stats.Failed, res.DRSMigrations+res.CrossBBMoves, res.Resizes)

	// Mean usage per VM over the window, from the recorded VM series.
	type usage struct{ cpu, mem float64 }
	usages := map[string]usage{}
	for _, s := range res.Store.Select(exporter.MetricVMCPURatio) {
		id := s.Labels.Get("virtualmachine")
		u := usages[id]
		u.cpu = telemetry.MeanOverRange(s, 0, cfg.Horizon())
		usages[id] = u
	}
	for _, s := range res.Store.Select(exporter.MetricVMMemRatio) {
		id := s.Labels.Get("virtualmachine")
		u := usages[id]
		u.mem = telemetry.MeanOverRange(s, 0, cfg.Horizon())
		usages[id] = u
	}

	// Recommend: if mean CPU < 35%, half the vCPUs would still leave the
	// VM below the 70% threshold; same logic for memory at < 35%.
	type rec struct {
		vm          *vmmodel.VM
		cpu, mem    float64
		savedVCPUs  int
		savedMemGiB int
	}
	var recs []rec
	var reclaimCPU, reclaimMem int
	population := 0
	for _, vm := range res.VMs {
		u, ok := usages[string(vm.ID)]
		if !ok {
			continue
		}
		population++
		r := rec{vm: vm, cpu: u.cpu, mem: u.mem}
		if u.cpu > 0 && u.cpu < 0.35 {
			r.savedVCPUs = vm.Flavor.VCPUs / 2
		}
		if u.mem > 0 && u.mem < 0.35 {
			r.savedMemGiB = vm.Flavor.RAMGiB / 2
		}
		if r.savedVCPUs > 0 || r.savedMemGiB > 0 {
			recs = append(recs, r)
			reclaimCPU += r.savedVCPUs
			reclaimMem += r.savedMemGiB
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].savedVCPUs > recs[j].savedVCPUs })

	// Population-level framing, matching Fig. 14a.
	cdf := analysis.VMMeanUsage(res.Store, exporter.MetricVMCPURatio, 0, cfg.Horizon())
	split := analysis.SplitUtilization(cdf)
	fmt.Printf("population: %d VMs with telemetry; %.0f%% CPU-underutilized (paper: >80%%)\n\n",
		population, split.Under*100)

	fmt.Printf("right-sizing candidates: %d VMs (%.0f%% of population)\n",
		len(recs), float64(len(recs))/float64(population)*100)
	fmt.Printf("reclaimable: %d vCPUs, %d GiB memory\n\n", reclaimCPU, reclaimMem)

	fmt.Println("top candidates:")
	fmt.Printf("%-12s %-6s %10s %10s %12s %12s\n", "vm", "flavor", "cpu-mean", "mem-mean", "save vCPUs", "save GiB")
	n := len(recs)
	if n > 10 {
		n = 10
	}
	for _, r := range recs[:n] {
		fmt.Printf("%-12s %-6s %9.0f%% %9.0f%% %12d %12d\n",
			r.vm.ID, r.vm.Flavor.Name, r.cpu*100, r.mem*100, r.savedVCPUs, r.savedMemGiB)
	}
}
