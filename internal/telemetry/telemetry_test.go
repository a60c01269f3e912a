package telemetry

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"sapsim/internal/sim"
)

func TestNewLabels(t *testing.T) {
	l, err := NewLabels("node", "n1", "bb", "bb-0")
	if err != nil {
		t.Fatal(err)
	}
	if l.Get("node") != "n1" || l.Get("bb") != "bb-0" {
		t.Errorf("label values wrong: %v", l)
	}
	if l.Get("missing") != "" {
		t.Error("missing label should be empty")
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
}

func TestLabelsErrors(t *testing.T) {
	if _, err := NewLabels("odd"); err == nil {
		t.Error("odd label count accepted")
	}
	if _, err := NewLabels("", "v"); err == nil {
		t.Error("empty label name accepted")
	}
	if _, err := NewLabels("a", "1", "a", "2"); err == nil {
		t.Error("duplicate label accepted")
	}
}

func TestLabelsCanonicalOrder(t *testing.T) {
	a := MustLabels("b", "2", "a", "1")
	b := MustLabels("a", "1", "b", "2")
	if a.String() != b.String() {
		t.Errorf("label order not canonical: %s vs %s", a, b)
	}
	if a.String() != `{a="1",b="2"}` {
		t.Errorf("String = %s", a)
	}
}

func TestMustLabelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLabels did not panic on bad input")
		}
	}()
	MustLabels("odd")
}

func TestAppendAndSelect(t *testing.T) {
	st := NewStore()
	l1 := MustLabels("node", "n1")
	l2 := MustLabels("node", "n2")
	for i := 0; i < 5; i++ {
		if err := st.Append("cpu", l1, sim.Time(i)*sim.Minute, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Append("cpu", l2, 0, 9); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("mem", l1, 0, 1); err != nil {
		t.Fatal(err)
	}

	all := st.Select("cpu")
	if len(all) != 2 {
		t.Fatalf("Select(cpu) = %d series, want 2", len(all))
	}
	one := st.Select("cpu", Matcher{"node", "n1"})
	if len(one) != 1 || len(one[0].Samples) != 5 {
		t.Fatalf("Select(cpu,node=n1) wrong: %v", one)
	}
	none := st.Select("cpu", Matcher{"node", "nope"})
	if len(none) != 0 {
		t.Error("matcher failed to exclude")
	}
	if got := st.SeriesCount(); got != 3 {
		t.Errorf("SeriesCount = %d, want 3", got)
	}
	if got := st.SampleCount(); got != 7 {
		t.Errorf("SampleCount = %d, want 7", got)
	}
	metrics := st.Metrics()
	if len(metrics) != 2 || metrics[0] != "cpu" || metrics[1] != "mem" {
		t.Errorf("Metrics = %v", metrics)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	st := NewStore()
	l := MustLabels("n", "1")
	if err := st.Append("m", l, sim.Minute, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("m", l, sim.Minute, 2); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("equal timestamp error = %v, want ErrOutOfOrder", err)
	}
	if err := st.Append("m", l, 0, 2); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("past timestamp error = %v, want ErrOutOfOrder", err)
	}
}

func TestSeriesRangeAndAt(t *testing.T) {
	s := &Series{}
	for i := 0; i < 10; i++ {
		s.Samples = append(s.Samples, Sample{T: sim.Time(i) * sim.Hour, V: float64(i)})
	}
	win := s.Range(2*sim.Hour, 5*sim.Hour)
	if len(win) != 3 || win[0].V != 2 || win[2].V != 4 {
		t.Errorf("Range = %v", win)
	}
	if v, ok := s.At(3*sim.Hour + sim.Minute); !ok || v != 3 {
		t.Errorf("At = %v,%v want 3,true", v, ok)
	}
	if _, ok := s.At(-sim.Second); ok {
		t.Error("At before first sample should be false")
	}
	if last, ok := s.Last(); !ok || last.V != 9 {
		t.Errorf("Last = %v,%v", last, ok)
	}
	var empty Series
	if _, ok := empty.Last(); ok {
		t.Error("empty Last should be false")
	}
}

func TestAggregates(t *testing.T) {
	samples := []Sample{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	if got := Mean(samples); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Max(samples); got != 4 {
		t.Errorf("Max = %v, want 4", got)
	}
	if got := Min(samples); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Max(nil)) || !math.IsNaN(Min(nil)) {
		t.Error("empty aggregates should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := PercentileValues(vals, 50); got != 5.5 {
		t.Errorf("p50 = %v, want 5.5", got)
	}
	if got := PercentileValues(vals, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := PercentileValues(vals, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := PercentileValues([]float64{7}, 95); got != 7 {
		t.Errorf("single-value p95 = %v, want 7", got)
	}
	if !math.IsNaN(PercentileValues(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	// Clamping.
	if got := PercentileValues(vals, -10); got != 1 {
		t.Errorf("p(-10) = %v, want 1", got)
	}
	if got := PercentileValues(vals, 200); got != 10 {
		t.Errorf("p(200) = %v, want 10", got)
	}
	// Input must not be mutated.
	orig := []float64{3, 1, 2}
	PercentileValues(orig, 50)
	if orig[0] != 3 || orig[1] != 1 || orig[2] != 2 {
		t.Error("PercentileValues mutated its input")
	}
}

func TestDailyStats(t *testing.T) {
	s := &Series{}
	// Day 0: values 10, 20. Day 1: empty. Day 2: value 30.
	s.Samples = []Sample{
		{T: sim.Hour, V: 10},
		{T: 2 * sim.Hour, V: 20},
		{T: 2*sim.Day + sim.Hour, V: 30},
	}
	stats := DailyStats(s, 3)
	if len(stats) != 3 {
		t.Fatalf("got %d days", len(stats))
	}
	if stats[0].Mean != 15 || stats[0].N != 2 || stats[0].Max != 20 {
		t.Errorf("day0 = %+v", stats[0])
	}
	if stats[1].N != 0 || !math.IsNaN(stats[1].Mean) {
		t.Errorf("day1 should be missing: %+v", stats[1])
	}
	if stats[2].Mean != 30 || stats[2].N != 1 {
		t.Errorf("day2 = %+v", stats[2])
	}
}

func TestMeanOverRange(t *testing.T) {
	s := &Series{Samples: []Sample{{0, 2}, {sim.Hour, 4}, {2 * sim.Hour, 9}}}
	if got := MeanOverRange(s, 0, 2*sim.Hour); got != 3 {
		t.Errorf("MeanOverRange = %v, want 3", got)
	}
	if !math.IsNaN(MeanOverRange(s, 10*sim.Hour, 20*sim.Hour)) {
		t.Error("empty range should be NaN")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		p1, p2 := float64(a)/255*100, float64(b)/255*100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := PercentileValues(vals, p1), PercentileValues(vals, p2)
		lo, hi := PercentileValues(vals, 0), PercentileValues(vals, 100)
		return v1 <= v2 && lo <= v1 && v2 <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Mean lies within [Min, Max].
func TestPropertyMeanBounded(t *testing.T) {
	f := func(raw []float64) bool {
		var ss []Sample
		for i, v := range raw {
			// Telemetry values are percentages and rates; restrict to a
			// realistic magnitude so the summation cannot overflow.
			if math.IsNaN(v) || math.Abs(v) > 1e12 {
				continue
			}
			ss = append(ss, Sample{T: sim.Time(i), V: v})
		}
		if len(ss) == 0 {
			return true
		}
		m := Mean(ss)
		return Min(ss) <= m+1e-9 && m <= Max(ss)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAppend(t *testing.T) {
	st := NewStore()
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			l := MustLabels("g", string(rune('a'+g)))
			for i := 0; i < 1000; i++ {
				if err := st.Append("m", l, sim.Time(i), 1); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if st.SampleCount() != 4000 {
		t.Errorf("SampleCount = %d, want 4000", st.SampleCount())
	}
}
