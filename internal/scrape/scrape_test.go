package scrape

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"sapsim/internal/esx"
	"sapsim/internal/exporter"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

func TestParseSimpleGauge(t *testing.T) {
	in := `# HELP foo A foo metric.
# TYPE foo gauge
foo 42
bar{a="1",b="two"} 3.14
baz{x="esc\"aped"} -7e3
m{a="}"} 1
m{a="x",b="y}z"} 2
`
	samples, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("parsed %d samples, want 5", len(samples))
	}
	if samples[0].Name != "foo" || samples[0].Value != 42 || samples[0].Labels.Len() != 0 {
		t.Errorf("sample 0 = %+v", samples[0])
	}
	if samples[1].Labels.Get("a") != "1" || samples[1].Labels.Get("b") != "two" || samples[1].Value != 3.14 {
		t.Errorf("sample 1 = %+v", samples[1])
	}
	if samples[2].Labels.Get("x") != `esc"aped` || samples[2].Value != -7000 {
		t.Errorf("sample 2 = %+v", samples[2])
	}
	// A '}' inside a quoted label value does not close the label set.
	if samples[3].Name != "m" || samples[3].Labels.Get("a") != "}" || samples[3].Value != 1 {
		t.Errorf("sample 3 = %+v", samples[3])
	}
	if samples[4].Labels.Get("a") != "x" || samples[4].Labels.Get("b") != "y}z" || samples[4].Value != 2 {
		t.Errorf("sample 4 = %+v", samples[4])
	}
}

func TestParseWithTimestamp(t *testing.T) {
	samples, err := Parse(strings.NewReader("m{l=\"v\"} 5 1700000000000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if samples[0].Value != 5 {
		t.Errorf("value = %v", samples[0].Value)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"just_a_name\n",
		"m{unterminated=\"v 3\n",
		"m{a=\"1\"} notanumber\n",
		"m{a=1} 3\n",
		"m{noeq} 3\n",
		"{a=\"b\"} 1\n",
	}
	for _, in := range bad {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	in := "\n# comment\n\nm 1\n\n"
	samples, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 {
		t.Errorf("parsed %d, want 1", len(samples))
	}
}

// FuzzParse: Parse never panics on arbitrary bytes, and whatever it
// accepts ingests into a fresh store without panicking; the only error
// ingest may add is a repeated series rejected as out of order.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"# HELP foo A foo metric.\n# TYPE foo gauge\nfoo 42\nbar{a=\"1\",b=\"two\"} 3.14\nbaz{x=\"esc\\\"aped\"} -7e3\n",
		"m{l=\"v\"} 5 1700000000000\n",
		"just_a_name\n",
		"m{unterminated=\"v 3\n",
		"m{a=\"1\"} notanumber\n",
		"m{a=1} 3\n",
		"m{noeq} 3\n",
		"\n# comment\n\nm 1\n\n",
		"cpu{node=\"n1\"} 55\nmem{node=\"n1\"} 70\n",
		"m 1\nm 2\n",
		"m{a=\"}\"} 1\n",
		"m{a=\"x\",b=\"y}z\"} 2\n",
		"{a=\"b\"} 1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		n, err := (&Scraper{Store: telemetry.NewStore()}).Ingest(bytes.NewReader(data), sim.Hour)
		if err != nil && !errors.Is(err, telemetry.ErrOutOfOrder) {
			t.Fatalf("Ingest of parsed input failed: %v", err)
		}
		if n > len(samples) {
			t.Fatalf("Ingest applied %d samples of %d parsed", n, len(samples))
		}
	})
}

func TestIngestAppendsToStore(t *testing.T) {
	st := telemetry.NewStore()
	s := &Scraper{Store: st}
	n, err := s.Ingest(strings.NewReader("cpu{node=\"n1\"} 55\nmem{node=\"n1\"} 70\n"), sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("ingested %d, want 2", n)
	}
	series := st.Select("cpu", telemetry.Matcher{Name: "node", Value: "n1"})
	if len(series) != 1 || series[0].Samples[0].V != 55 || series[0].Samples[0].T != sim.Hour {
		t.Errorf("stored series wrong: %+v", series)
	}
}

type constProfile struct{}

func (constProfile) CPUUsage(sim.Time) float64  { return 0.4 }
func (constProfile) MemUsage(sim.Time) float64  { return 0.6 }
func (constProfile) NetTxKbps(sim.Time) float64 { return 100 }
func (constProfile) NetRxKbps(sim.Time) float64 { return 100 }
func (constProfile) DiskUsage(sim.Time) float64 { return 0.3 }

// End-to-end: exporter → HTTP → scraper → store, the Sec. 4 pipeline.
func TestScrapePipelineEndToEnd(t *testing.T) {
	r := topology.NewRegion("t")
	dc := r.AddAZ("a").AddDC("dc")
	cap := topology.Capacity{PCPUCores: 16, MemoryMB: 256 << 10, StorageGB: 2 << 10, NetworkGbps: 200}
	if _, err := dc.AddBB("bb-0", topology.GeneralPurpose, 2, cap); err != nil {
		t.Fatal(err)
	}
	fleet := esx.NewFleet(r, esx.DefaultConfig())
	vm := &vmmodel.VM{ID: "vm-1", Flavor: vmmodel.CatalogByName()["MK"], Project: "p", Profile: constProfile{}}
	if err := fleet.Place(vm, r.Nodes()[0], 0); err != nil {
		t.Fatal(err)
	}

	now := sim.Time(0)
	exp := &exporter.Exporter{
		Fleet:    fleet,
		VMs:      func() []*vmmodel.VM { return []*vmmodel.VM{vm} },
		Clock:    func() sim.Time { return now },
		Interval: 5 * sim.Minute,
	}
	srv := httptest.NewServer(exp.Handler())
	defer srv.Close()

	st := telemetry.NewStore()
	scraper := &Scraper{Store: st, Client: srv.Client()}

	// Two scrape rounds at different sim times.
	for _, ts := range []sim.Time{0, 5 * sim.Minute} {
		now = ts
		n, err := scraper.ScrapeTarget(srv.URL, ts)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("scraped zero samples")
		}
	}

	series := st.Select(exporter.MetricHostCPUUtil,
		telemetry.Matcher{Name: "hostsystem", Value: "bb-0-n000"})
	if len(series) != 1 {
		t.Fatalf("host CPU series = %d, want 1", len(series))
	}
	if len(series[0].Samples) != 2 {
		t.Errorf("samples = %d, want 2", len(series[0].Samples))
	}
	// MK = 2 vCPU × 0.4 = 0.8 cores of 16 → 5%.
	if got := series[0].Samples[0].V; got != 5 {
		t.Errorf("scraped CPU util = %v, want 5", got)
	}
	vmSeries := st.Select(exporter.MetricVMCPURatio)
	if len(vmSeries) != 1 {
		t.Errorf("VM series = %d, want 1", len(vmSeries))
	}
}

func TestScrapeTargetHTTPError(t *testing.T) {
	srv := httptest.NewServer(nil) // 404 on every path
	defer srv.Close()
	s := &Scraper{Store: telemetry.NewStore(), Client: srv.Client()}
	if _, err := s.ScrapeTarget(srv.URL+"/nope", 0); err == nil {
		t.Error("scrape of 404 target succeeded")
	}
	if _, err := s.ScrapeTarget("http://127.0.0.1:1/metrics", 0); err == nil {
		t.Error("scrape of dead target succeeded")
	}
}

func TestIngestOutOfOrderPropagates(t *testing.T) {
	st := telemetry.NewStore()
	s := &Scraper{Store: st}
	if _, err := s.Ingest(bytes.NewReader([]byte("m 1\n")), sim.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(bytes.NewReader([]byte("m 2\n")), sim.Minute); err == nil {
		t.Error("out-of-order ingest succeeded")
	}
}
