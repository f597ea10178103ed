package telemetry

import (
	"strings"
	"testing"

	"ceio/internal/stats"
)

func TestNamingGrammar(t *testing.T) {
	cases := []struct {
		name string
		kind Kind
		ok   bool
	}{
		{"cache.llc.hits_total", KindCounter, true},
		{"iosys.drops_total", KindCounter, true},
		{"cache.llc.ddio.occupancy_bytes", KindGauge, true},
		{"tenant.llc.miss_ratio", KindGauge, true},
		{"iosys.delivered.rate_mpps", KindGauge, true},
		{"iosys.delivery.latency_ns", KindHistogram, true},
		{"a.b.c.d.e.f_total", KindCounter, true},            // 6 segments: at the limit
		{"hits_total", KindCounter, false},                  // 1 segment
		{"a.b.c.d.e.f.g_total", KindCounter, false},         // 7 segments
		{"cache.llc.hits", KindCounter, false},              // counter without _total
		{"cache.llc.hits_total", KindGauge, false},          // gauge with counter suffix
		{"cache.llc.occupancy", KindGauge, false},           // gauge without unit suffix
		{"iosys.delivery.latency_us", KindHistogram, false}, // histogram not in ns
		{"Cache.llc.hits_total", KindCounter, false},        // uppercase
		{"cache..hits_total", KindCounter, false},           // empty segment
		{"cache.9llc.hits_total", KindCounter, false},       // segment starts with digit
		{"cache.llc-x.hits_total", KindCounter, false},
		{"cache.llc_2.hits_total", KindCounter, true}, // digits and _ after the first byte
		{".cache.hits_total", KindCounter, false},     // leading empty segment
		{"cache._llc.hits_total", KindCounter, false}, // segment starts with _
		{"cache.llcé.hits_total", KindCounter, false}, // non-ASCII
		{"cache.llc.hits_ns\n", KindHistogram, false}, // trailing newline
	}
	for _, c := range cases {
		err := ValidateName(c.name, c.kind)
		if c.ok && err != nil {
			t.Errorf("ValidateName(%q, %v) = %v, want ok", c.name, c.kind, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ValidateName(%q, %v) accepted, want error", c.name, c.kind)
		}
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("cache.llc.hits_total", "LLC hits.", func() uint64 { return 0 })
	mustPanic("duplicate id", func() {
		r.Counter("cache.llc.hits_total", "LLC hits.", func() uint64 { return 0 })
	})
	mustPanic("family kind mismatch", func() {
		r.Gauge("cache.llc.hits_total", "LLC hits.", func() float64 { return 0 }, L("tenant", "a"))
	})
	mustPanic("family help mismatch", func() {
		r.Counter("cache.llc.hits_total", "different help", func() uint64 { return 0 }, L("tenant", "a"))
	})
	mustPanic("bad name", func() {
		r.Counter("llc_hits", "LLC hits.", func() uint64 { return 0 })
	})
	mustPanic("empty help", func() {
		r.Counter("cache.llc.misses_total", "", func() uint64 { return 0 })
	})
	mustPanic("bad label key", func() {
		r.Counter("cache.llc.misses_total", "LLC misses.", func() uint64 { return 0 }, L("Tenant", "a"))
	})
	mustPanic("bad label value", func() {
		r.Counter("cache.llc.misses_total", "LLC misses.", func() uint64 { return 0 }, L("tenant", `a"b`))
	})
	mustPanic("duplicate label key", func() {
		r.Counter("cache.llc.misses_total", "LLC misses.", func() uint64 { return 0 },
			L("tenant", "a"), L("tenant", "b"))
	})
}

func TestRegistryLookupAndValue(t *testing.T) {
	r := NewRegistry()
	hits := uint64(0)
	r.Counter("cache.llc.hits_total", "LLC hits.", func() uint64 { return hits })
	r.Gauge("tenant.llc.miss_ratio", "Tenant miss ratio.", func() float64 { return 0.25 },
		L("tenant", "kv"))
	r.Gauge("tenant.llc.miss_ratio", "Tenant miss ratio.", func() float64 { return 0.75 },
		L("tenant", "bulk"))

	hits = 42
	if got := r.Value("cache.llc.hits_total"); got != 42 {
		t.Errorf("counter value = %v, want 42", got)
	}
	if got := r.Value("tenant.llc.miss_ratio", L("tenant", "kv")); got != 0.25 {
		t.Errorf("kv miss ratio = %v, want 0.25", got)
	}
	if got := r.Value("tenant.llc.miss_ratio", L("tenant", "bulk")); got != 0.75 {
		t.Errorf("bulk miss ratio = %v, want 0.75", got)
	}
	if got := r.Value("no.such_total"); got != 0 {
		t.Errorf("missing metric = %v, want 0", got)
	}
	if !r.Has("tenant.llc.miss_ratio") || r.Has("no.such_total") {
		t.Error("Has misreports registration state")
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
	// Metrics() must come back sorted by identity.
	ms := r.Metrics()
	for i := 1; i < len(ms); i++ {
		if ms[i-1].ID() >= ms[i].ID() {
			t.Fatalf("Metrics() not sorted: %s >= %s", ms[i-1].ID(), ms[i].ID())
		}
	}
}

func TestMetricID(t *testing.T) {
	r := NewRegistry()
	r.Gauge("cache.llc.ddio.occupancy_bytes", "DDIO bytes.", func() float64 { return 0 },
		L("tenant", "kv"), L("part", "0"))
	m := r.Metrics()[0]
	// Labels sort by key, so "part" precedes "tenant".
	want := `cache.llc.ddio.occupancy_bytes{part="0",tenant="kv"}`
	if m.ID() != want {
		t.Errorf("ID = %s, want %s", m.ID(), want)
	}
}

func TestHistogramMetric(t *testing.T) {
	r := NewRegistry()
	var h stats.Histogram
	h.Record(1000)
	h.Record(3000)
	r.Histogram("iosys.delivery.latency_ns", "Delivery latency.", &h)
	m, ok := r.Lookup("iosys.delivery.latency_ns")
	if !ok {
		t.Fatal("histogram not registered")
	}
	if m.Hist() != &h {
		t.Error("Hist() does not return backing histogram")
	}
	if got := m.Value(); got != 2000 {
		t.Errorf("histogram Value (mean) = %v, want 2000", got)
	}
}

func TestPromName(t *testing.T) {
	if got := PromName("cache.llc.ddio.occupancy_bytes"); got != "ceio_cache_llc_ddio_occupancy_bytes" {
		t.Errorf("PromName = %s", got)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	bad := []string{
		"ceio_x_total",                   // no value
		"9bad_name 1",                    // name starts with digit
		"# TYPE ceio_x wibble",           // unknown type
		`ceio_x{tenant=kv} 1`,            // unquoted label value
		"ceio_x_total one",               // non-numeric value
		"ceio_x_total 1\nceio_x_total 2", // duplicate series
	}
	for _, in := range bad {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("ParseExposition accepted %q", in)
		}
	}
}
