// Package telemetry is the unified observability substrate of the CEIO
// reproduction: a metrics registry every simulated component (cache,
// PCIe, NIC datapath, tenants, fault handling) registers into under
// stable hierarchical names, a deterministic sampler that snapshots the
// registry on the simulation clock, and exporters for the standard
// formats (Prometheus text exposition, CSV/JSONL time series, Chrome
// trace-event JSON). It is the paper-side analogue of the pcm/perf
// counter harness the CEIO authors use to watch DDIO occupancy, IIO
// pressure, and LLC miss ratios evolve (§2.2, §6.2): what Intel's uncore
// PMU exposes as MSR reads, the simulation exposes as registered gauges.
//
// Hot paths never touch the registry. Components keep incrementing the
// plain struct fields they always had; registration happens once at
// machine construction and installs closures that read those fields.
// Reading only happens at sampling ticks and export time, so attaching
// telemetry adds zero allocations — and zero behavioural change, since
// readers never mutate simulation state — to the per-packet path.
//
// Metric names follow a strict grammar (enforced at registration; a
// violation panics at machine construction, so any run or test catches
// it):
//
//   - a name is 2–6 dot-separated segments: "cache.llc.hits_total";
//   - each segment matches [a-z][a-z0-9_]*;
//   - counters end in "_total";
//   - gauges end in a unit suffix: _bytes, _ratio, _ns, _mpps, _gbps,
//     _count, or _meps;
//   - histograms end in "_ns" (all recorded values are nanoseconds);
//   - label keys match [a-z][a-z0-9_]*; label values are non-empty and
//     free of quotes, backslashes, and newlines.
//
// OBSERVABILITY.md catalogues every name the simulator registers and the
// paper figure or equation each one corresponds to.
package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ceio/internal/stats"
)

// Kind classifies a metric.
type Kind uint8

// Metric kinds.
const (
	// KindCounter is a monotonically non-decreasing count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value that may move either way.
	KindGauge
	// KindHistogram is a log-bucketed distribution (stats.Histogram).
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Label is one key=value dimension of a metric (e.g. tenant="kv").
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Metric is one registered series: a name, its labels, and a reader that
// observes the live value at sample/export time.
type Metric struct {
	Name   string
	Kind   Kind
	Help   string
	Labels []Label // sorted by key

	read func() float64
	hist *stats.Histogram
	id   string
}

// ID returns the metric's unique identity: the name plus its sorted
// label set, e.g. `tenant.llc.miss_ratio{tenant="kv"}`.
func (m *Metric) ID() string { return m.id }

// Value reads the current scalar value. For histograms it returns the
// mean; use Hist for the full distribution.
func (m *Metric) Value() float64 {
	if m.hist != nil {
		return m.hist.Mean()
	}
	return m.read()
}

// Hist returns the backing histogram, or nil for scalar metrics.
func (m *Metric) Hist() *stats.Histogram { return m.hist }

// isIdent reports whether s matches [a-z][a-z0-9_]*, the grammar of both
// name segments and label keys. Every machine registers dozens of series,
// so this runs hundreds of times per setup; a byte loop keeps it cheap.
func isIdent(s string) bool {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// gaugeSuffixes are the unit suffixes the grammar admits for gauges
// (_meps is million simulation events per simulated second).
var gaugeSuffixes = []string{"_bytes", "_ratio", "_ns", "_mpps", "_gbps", "_count", "_meps"}

// ValidateName checks a metric name against the naming grammar for the
// given kind. It is exported so CI and tests can enforce the grammar on
// externally supplied names.
func ValidateName(name string, kind Kind) error {
	if len(name) > 80 {
		return fmt.Errorf("telemetry: name %q exceeds 80 characters", name)
	}
	if n := strings.Count(name, ".") + 1; n < 2 || n > 6 {
		return fmt.Errorf("telemetry: name %q has %d segments, want 2..6", name, n)
	}
	for rest := name; ; {
		seg, tail, more := strings.Cut(rest, ".")
		if !isIdent(seg) {
			return fmt.Errorf("telemetry: name %q: segment %q violates [a-z][a-z0-9_]*", name, seg)
		}
		if !more {
			break
		}
		rest = tail
	}
	switch kind {
	case KindCounter:
		if !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("telemetry: counter %q must end in _total", name)
		}
	case KindGauge:
		ok := false
		for _, suf := range gaugeSuffixes {
			if strings.HasSuffix(name, suf) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("telemetry: gauge %q must end in one of %s",
				name, strings.Join(gaugeSuffixes, ", "))
		}
		if strings.HasSuffix(name, "_total") {
			return fmt.Errorf("telemetry: gauge %q must not use the counter suffix _total", name)
		}
	case KindHistogram:
		if !strings.HasSuffix(name, "_ns") {
			return fmt.Errorf("telemetry: histogram %q must end in _ns", name)
		}
	}
	return nil
}

// validateLabels checks label keys and values against the grammar.
func validateLabels(name string, labels []Label) error {
	for _, l := range labels {
		if !isIdent(l.Key) {
			return fmt.Errorf("telemetry: metric %q: label key %q violates [a-z][a-z0-9_]*", name, l.Key)
		}
		if l.Value == "" {
			return fmt.Errorf("telemetry: metric %q: label %q has an empty value", name, l.Key)
		}
		if strings.ContainsAny(l.Value, "\"\\\n") {
			return fmt.Errorf("telemetry: metric %q: label %q value %q contains a quote, backslash or newline", name, l.Key, l.Value)
		}
	}
	return nil
}

// metricID renders the canonical identity string for name + labels
// (sorted by key), each value Go-quoted: `name{k1="v1",k2="v2"}`.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	n := len(name) + 2
	for _, l := range labels {
		n += len(l.Key) + len(l.Value) + 4
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// sortedLabels returns a copy of labels sorted by key.
func sortedLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	ls := slices.Clone(labels)
	slices.SortFunc(ls, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	return ls
}

// Registry holds the registered metrics of one simulated machine (or of
// a process, for CLI-level counters). The zero value is not usable;
// construct with NewRegistry. Registration is a setup-time operation and
// panics on grammar violations or duplicate identities, mirroring the
// machine constructors' fail-loudly convention.
type Registry struct {
	metrics []*Metric
	byID    map[string]*Metric
	byName  map[string]*Metric // first metric registered under each name
}

// registrySize presizes a registry for the series one machine registers
// (49 on a Baseline host, 65 on a CEIO host, 8 more per dataplane
// module), so setup does not regrow the indexes.
const registrySize = 128

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make([]*Metric, 0, registrySize),
		byID:    make(map[string]*Metric, registrySize),
		byName:  make(map[string]*Metric, registrySize),
	}
}

func (r *Registry) register(name, help string, kind Kind, read func() float64, hist *stats.Histogram, labels []Label) *Metric {
	if err := ValidateName(name, kind); err != nil {
		panic(err)
	}
	if err := validateLabels(name, labels); err != nil {
		panic(err)
	}
	if help == "" {
		panic(fmt.Sprintf("telemetry: metric %q registered without help text", name))
	}
	ls := sortedLabels(labels)
	for i := 1; i < len(ls); i++ {
		if ls[i].Key == ls[i-1].Key {
			panic(fmt.Sprintf("telemetry: metric %q has duplicate label key %q", name, ls[i].Key))
		}
	}
	m := &Metric{Name: name, Kind: kind, Help: help, Labels: ls, read: read, hist: hist}
	m.id = metricID(name, ls)
	if _, dup := r.byID[m.id]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %s", m.id))
	}
	if first, ok := r.byName[name]; ok {
		// All series sharing a name form one metric family and must agree
		// on kind and help (the Prometheus exposition emits one HELP/TYPE
		// header per family).
		if first.Kind != kind || first.Help != help {
			panic(fmt.Sprintf("telemetry: metric family %q re-registered with different kind or help", name))
		}
	} else {
		r.byName[name] = m
	}
	r.byID[m.id] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers a monotonic counter read through fn.
func (r *Registry) Counter(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, KindCounter, func() float64 { return float64(fn()) }, nil, labels)
}

// Gauge registers an instantaneous gauge read through fn.
func (r *Registry) Gauge(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, KindGauge, fn, nil, labels)
}

// Histogram registers a stats.Histogram distribution. The histogram is
// read live at export time; callers keep recording into it as usual.
func (r *Registry) Histogram(name, help string, h *stats.Histogram, labels ...Label) {
	r.register(name, help, KindHistogram, nil, h, labels)
}

// Len returns the number of registered series.
func (r *Registry) Len() int { return len(r.metrics) }

// Metrics returns the registered series sorted by identity, so every
// export walks them in one canonical, deterministic order.
func (r *Registry) Metrics() []*Metric {
	out := make([]*Metric, len(r.metrics))
	copy(out, r.metrics)
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Lookup finds a series by name and exact label set.
func (r *Registry) Lookup(name string, labels ...Label) (*Metric, bool) {
	m, ok := r.byID[metricID(name, sortedLabels(labels))]
	return m, ok
}

// Value reads one series' current scalar value, or 0 when the series is
// not registered (e.g. CEIO counters on a baseline machine). It is the
// read side the snapshot renderers are built on.
func (r *Registry) Value(name string, labels ...Label) float64 {
	if m, ok := r.Lookup(name, labels...); ok {
		return m.Value()
	}
	return 0
}

// Has reports whether any series is registered under name (with any
// label set).
func (r *Registry) Has(name string) bool {
	_, ok := r.byName[name]
	return ok
}

// Names returns the distinct metric family names in sorted order.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
