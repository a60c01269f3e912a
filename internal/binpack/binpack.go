// Package binpack implements the classic bin-packing strategies the paper
// cites as the low-computational-effort workhorses of VM placement
// (Sec. 3.2): First-Fit, Best-Fit, Worst-Fit, and Next-Fit, extended to two
// resource dimensions (vCPU, memory) as required for VM-to-host assignment.
//
// The bin-packing ablation bench (BenchmarkAblationBinPacking, A5, in the
// root package) compares their packing efficiency on the paper's flavor
// mix. The Nova scheduler does not use this package; its weighers pack or
// spread on their own.
package binpack

import (
	"errors"
	"fmt"
)

// Item is one VM-shaped object to pack.
type Item struct {
	ID    string
	CPU   int64
	MemMB int64
}

// Bin is one node-shaped container.
type Bin struct {
	ID      string
	CPUCap  int64
	MemCap  int64
	cpuUsed int64
	memUsed int64
	Items   []Item
}

// NewBin returns an empty bin with the given capacities.
func NewBin(id string, cpuCap, memCap int64) *Bin {
	return &Bin{ID: id, CPUCap: cpuCap, MemCap: memCap}
}

// Fits reports whether the item fits the bin's remaining capacity.
func (b *Bin) Fits(it Item) bool {
	return b.cpuUsed+it.CPU <= b.CPUCap && b.memUsed+it.MemMB <= b.MemCap
}

// Add places the item, which must fit.
func (b *Bin) Add(it Item) error {
	if !b.Fits(it) {
		return fmt.Errorf("binpack: item %s does not fit bin %s", it.ID, b.ID)
	}
	b.Items = append(b.Items, it)
	b.cpuUsed += it.CPU
	b.memUsed += it.MemMB
	return nil
}

// CPUUsed and MemUsed report current usage.
func (b *Bin) CPUUsed() int64 { return b.cpuUsed }

// MemUsed reports current memory usage.
func (b *Bin) MemUsed() int64 { return b.memUsed }

// fillAfter returns the normalized fill level (0..2, sum over dimensions)
// the bin would reach after accepting the item.
func (b *Bin) fillAfter(it Item) float64 {
	cpu := float64(b.cpuUsed+it.CPU) / float64(b.CPUCap)
	mem := float64(b.memUsed+it.MemMB) / float64(b.MemCap)
	return cpu + mem
}

// Strategy selects a bin for an item from the currently open bins, or nil
// to request a new bin.
type Strategy interface {
	Name() string
	Choose(open []*Bin, it Item) *Bin
}

// FirstFit picks the first (oldest) open bin the item fits.
type FirstFit struct{}

// Name implements Strategy.
func (FirstFit) Name() string { return "FirstFit" }

// Choose implements Strategy.
func (FirstFit) Choose(open []*Bin, it Item) *Bin {
	for _, b := range open {
		if b.Fits(it) {
			return b
		}
	}
	return nil
}

// BestFit picks the fitting bin that would be fullest after placement,
// minimizing wasted space — the strategy behind memory bin-packing of HANA
// workloads.
type BestFit struct{}

// Name implements Strategy.
func (BestFit) Name() string { return "BestFit" }

// Choose implements Strategy.
func (BestFit) Choose(open []*Bin, it Item) *Bin {
	var best *Bin
	bestFill := -1.0
	for _, b := range open {
		if !b.Fits(it) {
			continue
		}
		if fill := b.fillAfter(it); fill > bestFill {
			bestFill = fill
			best = b
		}
	}
	return best
}

// WorstFit picks the fitting bin that would be emptiest after placement —
// the load-balancing (spread) behavior of the default Nova weighers.
type WorstFit struct{}

// Name implements Strategy.
func (WorstFit) Name() string { return "WorstFit" }

// Choose implements Strategy.
func (WorstFit) Choose(open []*Bin, it Item) *Bin {
	var worst *Bin
	worstFill := 3.0
	for _, b := range open {
		if !b.Fits(it) {
			continue
		}
		if fill := b.fillAfter(it); fill < worstFill {
			worstFill = fill
			worst = b
		}
	}
	return worst
}

// NextFit only ever considers the most recently opened bin.
type NextFit struct{}

// Name implements Strategy.
func (NextFit) Name() string { return "NextFit" }

// Choose implements Strategy.
func (NextFit) Choose(open []*Bin, it Item) *Bin {
	if len(open) == 0 {
		return nil
	}
	if last := open[len(open)-1]; last.Fits(it) {
		return last
	}
	return nil
}

// Strategies lists all built-in strategies.
func Strategies() []Strategy {
	return []Strategy{FirstFit{}, BestFit{}, WorstFit{}, NextFit{}}
}

// ErrItemTooLarge is returned when an item exceeds even an empty bin.
var ErrItemTooLarge = errors.New("binpack: item exceeds bin capacity")

// Result summarizes a packing run.
type Result struct {
	Bins []*Bin
	// Opened is the number of bins used.
	Opened int
	// LowerBound is the volume-based lower bound on the optimal number
	// of bins: max over dimensions of ceil(total demand / bin capacity).
	LowerBound int
}

// Pack packs the items in order using the strategy, opening new bins of the
// given shape as needed.
func Pack(items []Item, cpuCap, memCap int64, s Strategy) (*Result, error) {
	if cpuCap <= 0 || memCap <= 0 {
		return nil, errors.New("binpack: non-positive bin capacity")
	}
	var open []*Bin
	var totCPU, totMem int64
	for _, it := range items {
		if it.CPU > cpuCap || it.MemMB > memCap {
			return nil, fmt.Errorf("%w: %s", ErrItemTooLarge, it.ID)
		}
		totCPU += it.CPU
		totMem += it.MemMB
		b := s.Choose(open, it)
		if b == nil {
			b = NewBin(fmt.Sprintf("bin-%d", len(open)), cpuCap, memCap)
			open = append(open, b)
		}
		if err := b.Add(it); err != nil {
			return nil, err
		}
	}
	lb := int(ceilDiv(totCPU, cpuCap))
	if mlb := int(ceilDiv(totMem, memCap)); mlb > lb {
		lb = mlb
	}
	return &Result{Bins: open, Opened: len(open), LowerBound: lb}, nil
}

func ceilDiv(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// Utilization reports the mean normalized fill of the used bins across both
// dimensions (0..1): the packing-efficiency metric of the A5 ablation.
func (r *Result) Utilization() float64 {
	if len(r.Bins) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range r.Bins {
		cpu := float64(b.cpuUsed) / float64(b.CPUCap)
		mem := float64(b.memUsed) / float64(b.MemCap)
		sum += (cpu + mem) / 2
	}
	return sum / float64(len(r.Bins))
}
