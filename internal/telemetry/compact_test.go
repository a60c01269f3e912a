package telemetry

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"sapsim/internal/sim"
)

func fillStore(t *testing.T) *Store {
	t.Helper()
	st := NewStore()
	l := MustLabels("node", "n1")
	for i := 0; i < 10*24*12; i++ { // 10 days at 5-minute resolution
		ts := sim.Time(i) * 5 * sim.Minute
		if err := st.Append("cpu", l, ts, float64(i%12)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestDropBefore(t *testing.T) {
	st := fillStore(t)
	before := st.SampleCount()
	removed := st.DropBefore(5 * sim.Day)
	if removed != before/2 {
		t.Errorf("removed %d, want %d", removed, before/2)
	}
	s := st.Select("cpu")[0]
	if s.Samples[0].T != 5*sim.Day {
		t.Errorf("first sample at %v, want 5d", s.Samples[0].T)
	}
	// Idempotent.
	if again := st.DropBefore(5 * sim.Day); again != 0 {
		t.Errorf("second drop removed %d", again)
	}
}

func TestDropBeforeRemovesEmptySeries(t *testing.T) {
	st := NewStore()
	l := MustLabels("node", "gone")
	if err := st.Append("cpu", l, sim.Hour, 1); err != nil {
		t.Fatal(err)
	}
	st.DropBefore(sim.Day)
	if st.SeriesCount() != 0 {
		t.Error("empty series not removed")
	}
	if len(st.Select("cpu")) != 0 {
		t.Error("select still returns the dead series")
	}
	// Appending afresh must work (series recreated).
	if err := st.Append("cpu", l, 2*sim.Day, 2); err != nil {
		t.Fatal(err)
	}
	if st.SeriesCount() != 1 {
		t.Error("series not recreated")
	}
}

func TestCompactReducesAndPreservesDailyMeans(t *testing.T) {
	st := fillStore(t)
	s := st.Select("cpu")[0]
	wantDaily := DailyStats(s, 10)

	before := st.SampleCount()
	reduced := st.Compact(7*sim.Day, sim.Hour)
	if reduced <= 0 {
		t.Fatal("compaction reduced nothing")
	}
	if st.SampleCount() != before-reduced {
		t.Errorf("sample accounting wrong: %d vs %d-%d", st.SampleCount(), before, reduced)
	}

	// The compacted region is hourly now; 7 days × 24 + 3 days × 288.
	s = st.Select("cpu")[0]
	want := 7*24 + 3*288
	if len(s.Samples) != want {
		t.Errorf("samples after compact = %d, want %d", len(s.Samples), want)
	}

	// Daily means must be unchanged (step divides the day and the raw
	// pattern is uniform within buckets).
	gotDaily := DailyStats(s, 10)
	for d := range wantDaily {
		if math.Abs(gotDaily[d].Mean-wantDaily[d].Mean) > 1e-9 {
			t.Errorf("day %d mean changed: %v -> %v", d, wantDaily[d].Mean, gotDaily[d].Mean)
		}
	}

	// Samples must remain strictly ordered (appendable).
	for i := 1; i < len(s.Samples); i++ {
		if s.Samples[i-1].T >= s.Samples[i].T {
			t.Fatal("compacted series out of order")
		}
	}
	l := MustLabels("node", "n1")
	if err := st.Append("cpu", l, 11*sim.Day, 1); err != nil {
		t.Errorf("append after compact: %v", err)
	}
}

// fillMultiMetric spreads series over metrics and nodes so every retention
// test below exercises several postings and label-value lists.
func fillMultiMetric(t *testing.T) *Store {
	t.Helper()
	st := NewStore()
	app := st.Appender()
	for _, metric := range []string{"cpu", "mem", "net"} {
		for n := 0; n < 32; n++ {
			l := MustLabels("node", fmt.Sprintf("n%02d", n))
			for i := 0; i < 48; i++ { // 2 days hourly
				app.Append(metric, l, sim.Time(i)*sim.Hour, float64(i))
			}
		}
	}
	if _, err := app.Commit(); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDropBeforeIndexConsistency: after retention deletes whole series, the
// postings and label-value indexes must agree — Metrics goes empty, Select
// by metric and by matcher find nothing, and recreation works.
func TestDropBeforeIndexConsistency(t *testing.T) {
	st := fillMultiMetric(t)
	if got := len(st.Metrics()); got != 3 {
		t.Fatalf("Metrics = %d, want 3", got)
	}
	st.DropBefore(48 * sim.Hour) // everything
	if st.SeriesCount() != 0 || st.SampleCount() != 0 {
		t.Errorf("store not empty: %d series, %d samples", st.SeriesCount(), st.SampleCount())
	}
	if got := st.Metrics(); len(got) != 0 {
		t.Errorf("Metrics after full drop = %v, want none (stale postings)", got)
	}
	for _, metric := range []string{"cpu", "mem", "net"} {
		if got := st.Select(metric); len(got) != 0 {
			t.Errorf("Select(%s) after full drop = %d series (stale postings)", metric, len(got))
		}
		if got := st.Select(metric, Matcher{"node", "n00"}); len(got) != 0 {
			t.Errorf("matcher Select(%s) after full drop = %d series (stale label index)", metric, len(got))
		}
	}
	// Recreation re-indexes from scratch.
	if err := st.Append("cpu", MustLabels("node", "n00"), 100*sim.Hour, 1); err != nil {
		t.Fatal(err)
	}
	if got := st.Select("cpu", Matcher{"node", "n00"}); len(got) != 1 {
		t.Errorf("recreated series not indexed: %d", len(got))
	}
}

// TestDropBeforePartialKeepsIndexes: dropping only part of the window must
// leave every series selectable through both indexes.
func TestDropBeforePartialKeepsIndexes(t *testing.T) {
	st := fillMultiMetric(t)
	removed := st.DropBefore(24 * sim.Hour)
	if want := 3 * 32 * 24; removed != want {
		t.Errorf("removed %d, want %d", removed, want)
	}
	for _, metric := range []string{"cpu", "mem", "net"} {
		if got := st.Select(metric); len(got) != 32 {
			t.Errorf("Select(%s) = %d series, want 32", metric, len(got))
		}
	}
	got := st.Select("mem", Matcher{"node", "n17"})
	if len(got) != 1 || got[0].Samples[0].T != 24*sim.Hour {
		t.Errorf("matcher select after partial drop wrong: %v", got)
	}
}

// TestCompactIndexConsistency: compaction rewrites samples but must leave
// every index entry intact, and the store appendable.
func TestCompactIndexConsistency(t *testing.T) {
	st := fillMultiMetric(t)
	before := st.SeriesCount()
	reduced := st.Compact(48*sim.Hour, sim.Day)
	if reduced <= 0 {
		t.Fatal("compaction reduced nothing")
	}
	if st.SeriesCount() != before {
		t.Errorf("compaction changed series count: %d -> %d", before, st.SeriesCount())
	}
	for _, metric := range []string{"cpu", "mem", "net"} {
		series := st.Select(metric)
		if len(series) != 32 {
			t.Fatalf("Select(%s) = %d series after compact, want 32", metric, len(series))
		}
		for _, s := range series {
			if len(s.Samples) != 2 { // 2 days → 2 daily means
				t.Fatalf("%s%s has %d samples, want 2", metric, s.Labels, len(s.Samples))
			}
		}
	}
	if got := st.Select("net", Matcher{"node", "n31"}); len(got) != 1 {
		t.Errorf("label index broken after compact: %d", len(got))
	}
}

// TestOutOfOrderAcrossSeriesAfterRetention: the out-of-order guard must
// hold on the compacted timeline of every series.
func TestOutOfOrderAcrossSeriesAfterRetention(t *testing.T) {
	st := fillMultiMetric(t)
	st.Compact(48*sim.Hour, sim.Day)
	app := st.Appender()
	for n := 0; n < 32; n++ {
		l := MustLabels("node", fmt.Sprintf("n%02d", n))
		// Last compacted sample anchors at t=1d; t=0 is in the past.
		app.Append("cpu", l, 0, 1)
	}
	applied, err := app.Commit()
	if !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("stale appends accepted: applied=%d err=%v", applied, err)
	}
	if applied != 0 {
		t.Errorf("applied = %d stale samples, want 0", applied)
	}
	// Fresh timestamps are fine everywhere.
	for n := 0; n < 32; n++ {
		l := MustLabels("node", fmt.Sprintf("n%02d", n))
		app.Append("cpu", l, 3*sim.Day, 1)
	}
	if applied, err := app.Commit(); err != nil || applied != 32 {
		t.Errorf("fresh appends after compaction: applied=%d err=%v", applied, err)
	}
}

func TestCompactNoopCases(t *testing.T) {
	st := fillStore(t)
	if st.Compact(0, sim.Hour) != 0 {
		t.Error("compacting nothing reduced samples")
	}
	if st.Compact(sim.Day, 0) != 0 {
		t.Error("zero step compacted")
	}
	// Compacting already-coarse data gains nothing.
	st.Compact(10*sim.Day, sim.Hour)
	if st.Compact(10*sim.Day, sim.Hour) != 0 {
		t.Error("recompaction reduced again")
	}
}
