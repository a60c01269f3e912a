package telemetry

import (
	"math"
	"sort"

	"sapsim/internal/sim"
)

// Mean returns the arithmetic mean of the samples, or NaN when empty.
func Mean(samples []Sample) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, s := range samples {
		sum += s.V
	}
	return sum / float64(len(samples))
}

// Max returns the maximum sample value, or NaN when empty.
func Max(samples []Sample) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	max := samples[0].V
	for _, s := range samples[1:] {
		if s.V > max {
			max = s.V
		}
	}
	return max
}

// Min returns the minimum sample value, or NaN when empty.
func Min(samples []Sample) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	min := samples[0].V
	for _, s := range samples[1:] {
		if s.V < min {
			min = s.V
		}
	}
	return min
}

// Percentile returns the p-th percentile (0..100) of the sample values using
// linear interpolation between order statistics, or NaN when empty. The
// paper reports 95th percentiles throughout (Figs. 8 and 9).
func Percentile(samples []Sample, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	return PercentileValues(valuesOf(samples), p)
}

// PercentileValues is Percentile over a plain value slice. The input is
// copied, not mutated.
func PercentileValues(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func valuesOf(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.V
	}
	return out
}

// DailyStat is one day's aggregate of a series, used for heatmap rows and
// the daily mean/p95/max lines in Figures 8 and 9.
type DailyStat struct {
	Day  int // 0-based day index since the observation epoch
	Mean float64
	Max  float64
	Min  float64
	P95  float64
	N    int // sample count; 0 marks missing data (white heatmap cells)
}

// DailyStats buckets the series into per-day aggregates over days
// [0, days). Days without samples yield N == 0 and NaN statistics.
func DailyStats(s *Series, days int) []DailyStat {
	out := make([]DailyStat, days)
	for d := 0; d < days; d++ {
		from := sim.Time(d) * sim.Day
		to := from + sim.Day
		win := s.Range(from, to)
		st := DailyStat{Day: d, N: len(win)}
		if len(win) == 0 {
			st.Mean, st.Max, st.Min, st.P95 = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		} else {
			st.Mean = Mean(win)
			st.Max = Max(win)
			st.Min = Min(win)
			st.P95 = Percentile(win, 95)
		}
		out[d] = st
	}
	return out
}

// MeanOverRange returns the mean of the series restricted to [from, to), or
// NaN if no samples fall in the window.
func MeanOverRange(s *Series, from, to sim.Time) float64 {
	return Mean(s.Range(from, to))
}
