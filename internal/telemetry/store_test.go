package telemetry

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"sapsim/internal/sim"
)

// TestSelectSnapshotImmutable: series handed out by Select must not
// observe later appends.
func TestSelectSnapshotImmutable(t *testing.T) {
	st := NewStore()
	l := MustLabels("node", "n1")
	for i := 0; i < 3; i++ {
		if err := st.Append("cpu", l, sim.Time(i)*sim.Minute, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := st.Select("cpu")[0]
	if len(snap.Samples) != 3 {
		t.Fatalf("snapshot has %d samples, want 3", len(snap.Samples))
	}
	for i := 3; i < 1000; i++ {
		if err := st.Append("cpu", l, sim.Time(i)*sim.Minute, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(snap.Samples) != 3 {
		t.Errorf("snapshot grew to %d samples after appends", len(snap.Samples))
	}
	for i, smp := range snap.Samples {
		if smp.V != float64(i) {
			t.Errorf("snapshot sample %d mutated: %v", i, smp.V)
		}
	}
}

// TestConcurrentAppendSelect drives writers and readers together; run with
// -race this is the regression test for the old Select-returns-live-series
// race.
func TestConcurrentAppendSelect(t *testing.T) {
	st := NewStore()
	const writers = 4
	const perWriter = 500
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			app := st.Appender()
			l := MustLabels("g", fmt.Sprintf("w%d", g))
			for i := 0; i < perWriter; i++ {
				app.Append("m", l, sim.Time(i), float64(i))
				if i%50 == 49 {
					if _, err := app.Commit(); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if _, err := app.Commit(); err != nil {
				t.Error(err)
			}
		}(g)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 200; i++ {
			for _, s := range st.Select("m") {
				// Walk every sample; with -race this flags any mutation
				// of handed-out snapshots.
				for _, smp := range s.Samples {
					_ = smp.V
				}
			}
			_ = st.Metrics()
			_ = st.SampleCount()
		}
	}()
	wg.Wait()
	<-readerDone
	if got := st.SampleCount(); got != writers*perWriter {
		t.Errorf("SampleCount = %d, want %d", got, writers*perWriter)
	}
}

func TestAppenderBatch(t *testing.T) {
	st := NewStore()
	app := st.Appender()
	for i := 0; i < 100; i++ {
		l := MustLabels("node", fmt.Sprintf("n%02d", i))
		app.Append("cpu", l, sim.Minute, float64(i))
	}
	if app.Pending() != 100 {
		t.Errorf("Pending = %d, want 100", app.Pending())
	}
	// Nothing visible before commit.
	if n := st.SampleCount(); n != 0 {
		t.Errorf("samples visible before commit: %d", n)
	}
	applied, err := app.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if applied != 100 {
		t.Errorf("applied = %d, want 100", applied)
	}
	if app.Pending() != 0 {
		t.Errorf("Pending after commit = %d", app.Pending())
	}
	if st.SeriesCount() != 100 || st.SampleCount() != 100 {
		t.Errorf("store has %d series / %d samples, want 100/100",
			st.SeriesCount(), st.SampleCount())
	}
}

// TestAppenderPartialOutOfOrder: rejected samples are reported but do not
// sink the rest of the batch.
func TestAppenderPartialOutOfOrder(t *testing.T) {
	st := NewStore()
	l1 := MustLabels("node", "n1")
	l2 := MustLabels("node", "n2")
	if err := st.Append("cpu", l1, sim.Hour, 1); err != nil {
		t.Fatal(err)
	}
	app := st.Appender()
	app.Append("cpu", l1, sim.Minute, 2) // out of order for n1
	app.Append("cpu", l2, sim.Minute, 3) // fine for fresh n2
	applied, err := app.Commit()
	if !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("Commit error = %v, want ErrOutOfOrder", err)
	}
	if applied != 1 {
		t.Errorf("applied = %d, want 1", applied)
	}
	if got := st.Select("cpu", Matcher{"node", "n2"}); len(got) != 1 || got[0].Samples[0].V != 3 {
		t.Errorf("in-order sample of the batch missing: %v", got)
	}
	// The appender is reusable after an error.
	app.Append("cpu", l1, 2*sim.Hour, 4)
	if applied, err := app.Commit(); err != nil || applied != 1 {
		t.Errorf("reuse after error: applied=%d err=%v", applied, err)
	}
}

// TestLabelInterning: series sharing a label set share one backing slice.
func TestLabelInterning(t *testing.T) {
	st := NewStore()
	mk := func() Labels { return MustLabels("node", "n1", "cluster", "bb-0") }
	if err := st.Append("cpu", mk(), 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("mem", mk(), 0, 1); err != nil {
		t.Fatal(err)
	}
	a := st.Select("cpu")[0].Labels
	b := st.Select("mem")[0].Labels
	if len(a.kv) == 0 || &a.kv[0] != &b.kv[0] {
		t.Error("equal label sets not interned to one backing slice")
	}
}

// TestSelectEmptyValueMatcher: a matcher with an empty value selects series
// lacking the label (the index cannot serve this; the filter must).
func TestSelectEmptyValueMatcher(t *testing.T) {
	st := NewStore()
	if err := st.Append("cpu", MustLabels("node", "n1"), 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("cpu", MustLabels("node", "n2", "extra", "x"), 0, 2); err != nil {
		t.Fatal(err)
	}
	got := st.Select("cpu", Matcher{Name: "extra", Value: ""})
	if len(got) != 1 || got[0].Labels.Get("node") != "n1" {
		t.Errorf("empty-value matcher = %v, want the label-less series", got)
	}
}

// TestSelectDeterministicOrder: Select and Dump return series in creation
// order — one Append at a time, across metrics created interleaved in one
// Appender batch, when seeded from the label-value index, for series
// created by a later batch, and across a Dump/Load round trip.
func TestSelectDeterministicOrder(t *testing.T) {
	nodesOf := func(series []*Series) []string {
		out := make([]string, len(series))
		for i, s := range series {
			out[i] = s.Labels.Get("node")
		}
		return out
	}
	check := func(what string, got, want []string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s: order %v, want %v (creation order lost)", what, got, want)
		}
	}

	st := NewStore()
	want := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("n%02d", i)
		if err := st.Append("cpu", MustLabels("node", name), 0, 1); err != nil {
			t.Fatal(err)
		}
		want = append(want, name)
	}
	check("single appends", nodesOf(st.Select("cpu")), want)

	// Three metrics created interleaved in one batch, under node names
	// whose creation order is neither sorted nor hash order.
	metrics := []string{"cpu", "mem", "net"}
	labels := func(i int) Labels {
		return MustLabels("node", fmt.Sprintf("n%02d", i*37%64), "cluster", fmt.Sprintf("bb-%d", i%4))
	}
	st = NewStore()
	app := st.Appender()
	created := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		created = append(created, labels(i).Get("node"))
		for _, metric := range metrics {
			app.Append(metric, labels(i), sim.Hour, 1)
		}
	}
	if _, err := app.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, metric := range metrics {
		check("interleaved "+metric, nodesOf(st.Select(metric)), created)
	}

	// An equality matcher seeds the selection from the label-value list
	// (48 bb-1 series over all metrics, against 64 postings for mem).
	var bb1 []string
	for i, node := range created {
		if i%4 == 1 {
			bb1 = append(bb1, node)
		}
	}
	check("matcher", nodesOf(st.Select("mem", Matcher{"cluster", "bb-1"})), bb1)

	// Series created by a later batch follow the earlier ones; samples
	// appended to existing series do not move them.
	for i := 0; i < 64; i += 2 {
		app.Append("mem", labels(i), 2*sim.Hour, 1)
	}
	for i := 0; i < 4; i++ {
		app.Append("cpu", MustLabels("node", fmt.Sprintf("x%d", 3-i)), 2*sim.Hour, 1)
	}
	if _, err := app.Commit(); err != nil {
		t.Fatal(err)
	}
	check("later batch, mem", nodesOf(st.Select("mem")), created)
	check("later batch, cpu", nodesOf(st.Select("cpu")), append(slices.Clone(created), "x3", "x2", "x1", "x0"))

	// Dump lists every series in store-wide creation order, and a loaded
	// copy dumps and selects identically.
	var wantDump []string
	for _, node := range created {
		for _, metric := range metrics {
			wantDump = append(wantDump, metric+"/"+node)
		}
	}
	for i := 0; i < 4; i++ {
		wantDump = append(wantDump, fmt.Sprintf("cpu/x%d", 3-i))
	}
	dump := st.Dump()
	var gotDump []string
	for _, d := range dump {
		gotDump = append(gotDump, d.Metric+"/"+d.Labels[slices.Index(d.Labels, "node")+1])
	}
	check("dump", gotDump, wantDump)
	loaded := NewStore()
	if err := loaded.Load(dump); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Dump(), dump) {
		t.Error("Dump after Load differs from the dump loaded")
	}
	for _, metric := range metrics {
		check("loaded "+metric, nodesOf(loaded.Select(metric)), nodesOf(st.Select(metric)))
	}
}

// TestHashMatchesStringFingerprint: the 64-bit hash must distinguish every
// pair the debug string fingerprint distinguishes, including the classic
// concatenation ambiguity ("ab"+"c" vs "a"+"bc").
func TestHashMatchesStringFingerprint(t *testing.T) {
	cases := []struct {
		metric string
		labels Labels
	}{
		{"cpu", MustLabels("node", "n1")},
		{"cpu", MustLabels("node", "n2")},
		{"cpun", MustLabels("ode", "n1")},
		{"mem", MustLabels("node", "n1")},
		{"cpu", MustLabels("no", "den1")},
		{"cpu", Labels{}},
		{"", MustLabels("node", "n1")},
	}
	for i := range cases {
		for j := range cases {
			if i == j {
				continue
			}
			fpEq := fingerprint(cases[i].metric, cases[i].labels) == fingerprint(cases[j].metric, cases[j].labels)
			hashEq := hashSeries(cases[i].metric, cases[i].labels) == hashSeries(cases[j].metric, cases[j].labels)
			if fpEq != hashEq {
				t.Errorf("case %d vs %d: string fingerprint equal=%v, hash equal=%v",
					i, j, fpEq, hashEq)
			}
		}
	}
}
