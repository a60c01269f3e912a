package dataset

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

func TestAnonymizerConsistency(t *testing.T) {
	a := NewAnonymizer("salt-1")
	h1 := a.Hash("node-17")
	h2 := a.Hash("node-17")
	if h1 != h2 {
		t.Error("hashing not consistent")
	}
	if len(h1) != 12 {
		t.Errorf("hash length = %d, want 12", len(h1))
	}
	if h1 == "node-17" {
		t.Error("identity not anonymized")
	}
	if a.Hash("node-18") == h1 {
		t.Error("different identities collided")
	}
	b := NewAnonymizer("salt-2")
	if b.Hash("node-17") == h1 {
		t.Error("different salts should give different pseudonyms")
	}
}

func buildStore(t testing.TB) *telemetry.Store {
	t.Helper()
	st := telemetry.NewStore()
	l1 := telemetry.MustLabels("hostsystem", "node-1", "cluster", "bb-0")
	l2 := telemetry.MustLabels("hostsystem", "node-2", "cluster", "bb-0")
	for i := 0; i < 3; i++ {
		ts := sim.Time(i) * sim.Hour
		if err := st.Append("cpu_pct", l1, ts, float64(10+i)); err != nil {
			t.Fatal(err)
		}
		if err := st.Append("cpu_pct", l2, ts, float64(50+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Append("instances_total", telemetry.Labels{}, 0, 2); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestWriteReadRoundTrip(t *testing.T) {
	st := buildStore(t)
	var buf bytes.Buffer
	if err := Write(&buf, st, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SeriesCount() != st.SeriesCount() {
		t.Errorf("series = %d, want %d", got.SeriesCount(), st.SeriesCount())
	}
	if got.SampleCount() != st.SampleCount() {
		t.Errorf("samples = %d, want %d", got.SampleCount(), st.SampleCount())
	}
	series := got.Select("cpu_pct", telemetry.Matcher{Name: "hostsystem", Value: "node-1"})
	if len(series) != 1 {
		t.Fatalf("node-1 series = %d", len(series))
	}
	if series[0].Samples[2].V != 12 || series[0].Samples[2].T != 2*sim.Hour {
		t.Errorf("sample = %+v", series[0].Samples[2])
	}
	// Label-less series survives.
	if s := got.Select("instances_total"); len(s) != 1 || s[0].Samples[0].V != 2 {
		t.Errorf("instances series = %+v", s)
	}

	// Label values holding the separator or the escape byte, and a
	// nanosecond timestamp that is not exact in binary floating point.
	st = telemetry.NewStore()
	odd := telemetry.MustLabels("a", "x;y", "b", `p\q;`, "c", "k=v")
	if err := st.Append("m", odd, 15, 1); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Write(&buf, st, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	written := buf.String()
	got, err = Read(&buf)
	if err != nil {
		t.Fatalf("reading back %q: %v", written, err)
	}
	if s := got.Select("m"); len(s) != 1 || !s[0].Labels.Equal(odd) || s[0].Samples[0].T != 15 {
		t.Errorf("round trip of %v at 15ns gave %+v", odd, s)
	}
}

func TestWriteAnonymizes(t *testing.T) {
	st := buildStore(t)
	var buf bytes.Buffer
	opts := WriteOptions{Anonymizer: NewAnonymizer("s"), AnonymizeLabels: DefaultAnonymizedLabels()}
	if err := Write(&buf, st, opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "node-1") || strings.Contains(out, "node-2") {
		t.Error("raw hostnames leaked into the released CSV")
	}
	if !strings.Contains(out, "cluster=bb-0") {
		t.Error("non-identifying labels should be preserved")
	}
	// Consistency: the same node always maps to the same pseudonym.
	rows := strings.Split(strings.TrimSpace(out), "\n")
	pseudo := map[string]int{}
	for _, row := range rows[1:] {
		if i := strings.Index(row, "hostsystem="); i >= 0 {
			rest := row[i+len("hostsystem="):]
			if j := strings.IndexAny(rest, ";\n"); j >= 0 {
				rest = rest[:j]
			}
			pseudo[rest]++
		}
	}
	if len(pseudo) != 2 {
		t.Errorf("expected 2 pseudonyms, got %v", pseudo)
	}
}

func TestWriteDeterministic(t *testing.T) {
	st := buildStore(t)
	var a, b bytes.Buffer
	if err := Write(&a, st, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, st, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("export is not deterministic")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"wrong,header,row,x\n",
		"metric,ts_seconds,value,labels\nm,notanumber,1,\n",
		"metric,ts_seconds,value,labels\nm,1,notanumber,\n",
		"metric,ts_seconds,value,labels\nm,1,1,malformed-no-eq\n",
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: Read succeeded, want error", i)
		}
	}
}

func TestReadRejectsOutOfOrder(t *testing.T) {
	in := "metric,ts_seconds,value,labels\nm,100,1,\nm,50,2,\n"
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Error("out-of-order rows accepted")
	}
}

// FuzzRead: Read never panics on arbitrary bytes, and whatever it accepts
// round-trips — Read→Write→Read holds the same series and samples, and
// writing the re-read store gives the same bytes again.
func FuzzRead(f *testing.F) {
	var fixture bytes.Buffer
	if err := Write(&fixture, buildStore(f), WriteOptions{}); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		fixture.String(),
		"",
		"wrong,header,row,x\n",
		"metric,ts_seconds,value,labels\nm,notanumber,1,\n",
		"metric,ts_seconds,value,labels\nm,1,notanumber,\n",
		"metric,ts_seconds,value,labels\nm,1,1,malformed-no-eq\n",
		"metric,ts_seconds,value,labels\nm,100,1,\nm,50,2,\n",
		"metric,ts_seconds,value,labels\nm,0.000000015,1,a=x\\;y;b=p\\\\q\n",
		"metric,ts_seconds,value,labels\nm,1.5,NaN,c=k=v\nm,2,-0,c=k=v\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Write(&first, st, WriteOptions{}); err != nil {
			t.Fatalf("Write of accepted input: %v", err)
		}
		back, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading %q: %v", first.String(), err)
		}
		if a, b := canonicalDump(st), canonicalDump(back); a != b {
			t.Fatalf("round trip changed the store:\n%s\nvs\n%s", a, b)
		}
		var second bytes.Buffer
		if err := Write(&second, back, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second Write differs:\n%q\nvs\n%q", first.String(), second.String())
		}
	})
}

// canonicalDump renders a store's contents independent of series creation
// order, with values as bit patterns so NaN compares equal to itself.
func canonicalDump(st *telemetry.Store) string {
	var rows []string
	for _, d := range st.Dump() {
		row := fmt.Sprintf("%q %q", d.Metric, d.Labels)
		for _, s := range d.Samples {
			row += fmt.Sprintf(" %d:%x", s.T, math.Float64bits(s.V))
		}
		rows = append(rows, row)
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}
