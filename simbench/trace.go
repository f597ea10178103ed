package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/telemetry"
)

// The traced run observes the simulator only from outside: spans around
// the calls the benchmark makes, a forwarding wrapper at the
// iosys.Datapath boundary, a sampled CPU profile, runtime.MemStats and
// each machine's telemetry registry. Nothing inside the simulator is
// instrumented.

// span is one timed interval of the benchmark's own calls into the
// simulator. Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the span log was created
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark writes them out. A
// nil *spanLog records nothing, so untraced runs call it freely.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(l.t0))})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = int64(time.Since(l.t0))
}

// dpStats counts calls into a datapath's packet-path methods and
// estimates the host time spent inside them. Reading the clock costs
// about as much as a short datapath call, so only every timeEvery-th
// call is timed and BusyNs scales the sample up; Calls is exact.
type dpStats struct {
	Calls  uint64 `json:"calls"`
	BusyNs int64  `json:"busy_ns"`
}

const timeEvery = 16

// start counts a call and returns its start time if it is sampled.
func (s *dpStats) start() (t time.Time, timed bool) {
	s.Calls++
	if s.Calls%timeEvery != 0 {
		return t, false
	}
	return time.Now(), true
}

func (s *dpStats) done(t time.Time, timed bool) {
	if timed {
		s.BusyNs += timeEvery * int64(time.Since(t))
	}
}

// tracedDP forwards every iosys.Datapath call to the wrapped datapath,
// timing the per-packet ones, and forwards the optional MetricSource and
// FaultAware interfaces. It must not be installed where code
// type-asserts the concrete datapath: fleet hosts and the invariants
// auditor check m.DP.(*core.CEIO), which a wrapper would silently fail.
type tracedDP struct {
	iosys.Datapath
	st dpStats
}

func (d *tracedDP) Ingress(f *iosys.Flow, p *pkt.Packet) {
	t, timed := d.st.start()
	d.Datapath.Ingress(f, p)
	d.st.done(t, timed)
}

func (d *tracedDP) Poll(f *iosys.Flow, max int) []*pkt.Packet {
	t, timed := d.st.start()
	out := d.Datapath.Poll(f, max)
	d.st.done(t, timed)
	return out
}

func (d *tracedDP) OnDelivered(f *iosys.Flow, p *pkt.Packet) {
	t, timed := d.st.start()
	d.Datapath.OnDelivered(f, p)
	d.st.done(t, timed)
}

func (d *tracedDP) RegisterMetrics(reg *telemetry.Registry) {
	if ms, ok := d.Datapath.(iosys.MetricSource); ok {
		ms.RegisterMetrics(reg)
	}
}

func (d *tracedDP) FaultsEnabled() {
	if fa, ok := d.Datapath.(iosys.FaultAware); ok {
		fa.FaultsEnabled()
	}
}

// layerPkgs are the simulator modules whose CPU-profile self time is
// reported as <pkg>.self_share. Samples in other ceio/internal packages,
// the benchmark itself and non-runtime standard library count as
// other.self_share.
var layerPkgs = []string{
	"sim", "iosys", "cache", "pcie", "core", "baseline", "rdca", "dataplane",
	"stats", "telemetry", "invariants", "fleet", "fabric", "runner",
	"transport", "flowsteer", "pkt", "ring", "faults",
}

// shareNames lists every self-time bucket, in report order; the shares
// sum to 1.
func shareNames() []string {
	var out []string
	for _, p := range layerPkgs {
		out = append(out, p+".self_share")
	}
	return append(out, "runtime.map_share", "runtime.gc_share", "runtime.other_share", "other.self_share")
}

// bucketOf maps a profiled function name to its self-time bucket.
func bucketOf(fn string) string {
	const prefix = "ceio/internal/"
	if strings.HasPrefix(fn, prefix) {
		pkg := fn[len(prefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, p := range layerPkgs {
			if p == pkg {
				return p + ".self_share"
			}
		}
		return "other.self_share"
	}
	if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "internal/runtime/") {
		return "other.self_share"
	}
	if strings.HasPrefix(fn, "internal/runtime/maps.") || strings.Contains(fn, "runtime.map") ||
		strings.Contains(fn, "hash") {
		return "runtime.map_share"
	}
	for _, gc := range []string{"gc", "malloc", "scanobject", "scanblock", "scanstack", "markroot",
		"greyobject", "findObject", "sweep", "mspan", "mheap", "mcache", "mcentral", "newobject",
		"makeslice", "growslice", "heapBits", "wbBuf", "typePointers", "nextFree", "memclrNoHeapPointers"} {
		if strings.Contains(fn, gc) {
			return "runtime.gc_share"
		}
	}
	return "runtime.other_share"
}

// profileShares groups a CPU profile's flat samples into self-time
// buckets, using the pprof tool that ships with the Go toolchain.
func profileShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return sharesFromTop(out)
}

// sharesFromTop parses `pprof -top` rows ("flat flat% sum% cum cum%
// name") and normalises flat time per bucket to shares of the total.
func sharesFromTop(top []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	for _, name := range shareNames() {
		shares[name] = 0
	}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(top))
	inRows := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inRows {
			inRows = len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		flat, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		fn := strings.Join(fields[5:], " ")
		shares[bucketOf(fn)] += flat.Seconds()
		total += flat.Seconds()
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof: the profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// writeSpans writes the traced run's spans and datapath totals as JSON.
func writeSpans(path string, l *spanLog, dp map[string]dpStats) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"datapath\": %s,\n \"spans\": [\n", mustJSON(dp))
	for i, s := range l.spans {
		sep := ","
		if i == len(l.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "  %s%s\n", mustJSON(s), sep)
	}
	fmt.Fprintln(w, " ]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
