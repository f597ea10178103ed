package main

import (
	"sort"
	"time"

	"ceio/internal/telemetry"
)

// metricDef declares one reported metric. bound is set only on
// end-to-end metrics: the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the simulator waits on or pays
// for. Modelled results are a gate (runs_failed), not a score.
// The bounds follow the run-to-run spread measured on a shared 2-vCPU
// Xeon host, where other tenants' load moves simulator speed between runs
// minutes apart: the interquartile range of ten runs' medians was 4-19%
// of the median for the time metrics and under 3% for peak RSS.
var endToEnd = []metricDef{
	{"sim_pkts_per_s", "pkt/s", "higher", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.1},
}

// archNames are every architecture the benchmark can run, in the order
// per-architecture metrics are reported.
var archNames = []string{"Baseline", "HostCC", "ShRing", "CEIO", "RDCA"}

// perLayer returns every per-layer metric, in report order. A workload
// that does not exercise a layer reports 0 for it (see the package doc).
func perLayer() []metricDef {
	out := []metricDef{
		{Name: "iosys.delivered_pkts", Unit: "pkt", Better: "higher"},
		{Name: "sim.events_per_pkt", Unit: "events/pkt", Better: "lower"},
		{Name: "sim.cascades_per_kpkt", Unit: "count/kpkt", Better: "lower"},
		{Name: "iosys.drops_per_kpkt", Unit: "count/kpkt", Better: "lower"},
		{Name: "cache.llc.ops_per_pkt", Unit: "ops/pkt", Better: "lower"},
		{Name: "cache.llc.evictions_per_kpkt", Unit: "count/kpkt", Better: "lower"},
		{Name: "cache.mem.writebacks_per_kpkt", Unit: "count/kpkt", Better: "lower"},
		{Name: "pcie.dma.reads_per_kpkt", Unit: "count/kpkt", Better: "lower"},
		{Name: "pcie.dma.stalls_per_kpkt", Unit: "count/kpkt", Better: "lower"},
		{Name: "core.ceio.slow_ratio", Unit: "ratio", Better: "lower"},
		{Name: "runner.speedup", Unit: "x", Better: "higher"},
		{Name: "runtime.allocs_per_pkt", Unit: "allocs/pkt", Better: "lower"},
		{Name: "runtime.alloc_bytes_per_pkt", Unit: "B/pkt", Better: "lower"},
		{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
	}
	for _, s := range shareNames() {
		out = append(out, metricDef{Name: s, Unit: "ratio", Better: "lower"})
	}
	for _, a := range archNames {
		out = append(out,
			metricDef{Name: "arch." + a + ".sim_pkts_per_s", Unit: "pkt/s", Better: "higher"},
			metricDef{Name: "arch." + a + ".events_per_pkt", Unit: "events/pkt", Better: "lower"},
			metricDef{Name: "arch." + a + ".allocs_per_pkt", Unit: "allocs/pkt", Better: "lower"},
			metricDef{Name: "datapath." + a + ".calls_per_pkt", Unit: "calls/pkt", Better: "lower"},
			metricDef{Name: "datapath." + a + ".busy_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
		)
	}
	return out
}

// counts holds telemetry counter values by series name.
type counts map[string]float64

// countedSeries are the registry counters read around every measured
// window.
var countedSeries = []string{
	"engine.cascades_total",
	"iosys.delivered.packets_total", "iosys.delivered.bytes_total", "iosys.drops_total",
	"cache.llc.hits_total", "cache.llc.misses_total", "cache.llc.insertions_total", "cache.llc.evictions_total",
	"cache.mem.writebacks_total",
	"pcie.dma.reads_total", "pcie.dma.credit_stalls_total", "pcie.dma.read_stalls_total", "pcie.dma.iio_backpressure_total",
	"core.ceio.fast_packets_total", "core.ceio.slow_packets_total",
}

func readCounts(reg *telemetry.Registry) counts {
	c := counts{}
	for _, name := range countedSeries {
		c[name] = reg.Value(name)
	}
	return c
}

func (c counts) sub(o counts) counts {
	out := counts{}
	for k, v := range c {
		out[k] = v - o[k]
	}
	return out
}

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// pass is one closed-loop pass over a workload's runs.
type pass struct {
	runs     []runResult
	wall     time.Duration
	gcCycles uint32 // GC cycles completed during the pass
	pool     int
	traced   bool
}

// rate is simulated packets delivered per host second over the pass's
// measured windows.
func (p pass) rate() float64 {
	var pkts uint64
	var host time.Duration
	for _, r := range p.runs {
		pkts += r.delivered()
		host += r.measure
	}
	return div(float64(pkts), host.Seconds())
}

func (p pass) setup() time.Duration {
	var d time.Duration
	for _, r := range p.runs {
		d += r.setup
	}
	return d
}

func (p pass) delivered() uint64 {
	var n uint64
	for _, r := range p.runs {
		n += r.delivered()
	}
	return n
}

// layerCounts derives the exact per-layer count columns from one pass.
// Every pass of a seed yields the same values.
func layerCounts(p pass) map[string]float64 {
	sum := counts{}
	var events uint64
	for _, r := range p.runs {
		sum.add(r.counts)
		events += r.events
	}
	pkts := float64(p.delivered())
	perK := func(v float64) float64 { return div(1000*v, pkts) }
	fast, slow := sum["core.ceio.fast_packets_total"], sum["core.ceio.slow_packets_total"]
	return map[string]float64{
		"iosys.delivered_pkts":          pkts,
		"sim.events_per_pkt":            div(float64(events), pkts),
		"sim.cascades_per_kpkt":         perK(sum["engine.cascades_total"]),
		"iosys.drops_per_kpkt":          perK(sum["iosys.drops_total"]),
		"cache.llc.ops_per_pkt":         div(sum["cache.llc.hits_total"]+sum["cache.llc.misses_total"]+sum["cache.llc.insertions_total"], pkts),
		"cache.llc.evictions_per_kpkt":  perK(sum["cache.llc.evictions_total"]),
		"cache.mem.writebacks_per_kpkt": perK(sum["cache.mem.writebacks_total"]),
		"pcie.dma.reads_per_kpkt":       perK(sum["pcie.dma.reads_total"]),
		"pcie.dma.stalls_per_kpkt": perK(sum["pcie.dma.credit_stalls_total"] + sum["pcie.dma.read_stalls_total"] +
			sum["pcie.dma.iio_backpressure_total"]),
		"core.ceio.slow_ratio": div(slow, fast+slow),
	}
}

// div is a/b, or 0 when b is 0 (a run that failed before delivering).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf applies f to every pass and returns the median.
func medianOf(ps []pass, f func(pass) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return median(v)
}
