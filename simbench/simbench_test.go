package main

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// countColumns are the per-layer metrics that are exact counts: they
// must repeat bit for bit between invocations with the same seed.
var countColumns = []string{
	"sim.events_per_pkt", "cache.llc.ops_per_pkt", "pcie.dma.reads_per_kpkt", "iosys.delivered_pkts",
}

func invokeTraced(t *testing.T, workload string, seed int64) *report {
	t.Helper()
	var out bytes.Buffer
	rep, err := invoke(options{workload: workload, seed: seed, seconds: 0.5, trace: true, out: t.TempDir(), src: ".."}, &out)
	if err != nil {
		t.Fatalf("%s seed %d: %v\n%s", workload, seed, err, out.String())
	}
	if rep.failed != 0 {
		t.Fatalf("%s seed %d: %d of %d runs failed the output check\n%s", workload, seed, rep.failed, rep.attempted, out.String())
	}
	return rep
}

// TestSameSeedRepeats runs every workload twice with one seed and once
// with another: counts and fingerprints must repeat exactly, every run
// must pass the output check, and the self-time shares must sum to 1.
func TestSameSeedRepeats(t *testing.T) {
	for _, wl := range workloads {
		a := invokeTraced(t, wl.name, 5)
		b := invokeTraced(t, wl.name, 5)
		for _, c := range countColumns {
			if a.metrics[c] != b.metrics[c] {
				t.Errorf("%s: %s differs between invocations: %v vs %v", wl.name, c, a.metrics[c], b.metrics[c])
			}
		}
		if a.metrics["iosys.delivered_pkts"] == 0 {
			t.Errorf("%s: no packets delivered", wl.name)
		}
		for _, arch := range wl.archs {
			if a.fingerprints[arch] == "" || a.fingerprints[arch] != b.fingerprints[arch] {
				t.Errorf("%s/%s: fingerprints differ:\n%s\n%s", wl.name, arch, a.fingerprints[arch], b.fingerprints[arch])
			}
		}
		var sum float64
		for _, s := range shareNames() {
			sum += a.metrics[s]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: self shares sum to %v, want 1", wl.name, sum)
		}
		for _, d := range perLayer() {
			if _, ok := a.metrics[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wl.name, d.Name)
			}
		}
		invokeTraced(t, wl.name, 6)
	}
}

// TestManifestCurrent keeps BENCHMARK.json generated from the workload
// and metric definitions.
func TestManifestCurrent(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: bash simbench/run.sh --manifest BENCHMARK.json")
	}
}

// TestShareBuckets pins the grouping of profiled functions.
func TestShareBuckets(t *testing.T) {
	for fn, want := range map[string]string{
		"ceio/internal/sim.(*Engine).popNext":           "sim.self_share",
		"ceio/internal/iosys.(*Machine).AddFlowE.func1": "iosys.self_share",
		"ceio/internal/ring.(*SWRing).slot":             "ring.self_share",
		"ceio/internal/tenant.(*Registry).Audit":        "other.self_share",
		"runtime.mapaccess2_fast64":                     "runtime.map_share",
		"internal/runtime/maps.h2":                      "runtime.map_share",
		"runtime.mallocgc":                              "runtime.gc_share",
		"runtime.scanobject":                            "runtime.gc_share",
		"runtime.futex":                                 "runtime.other_share",
		"time.Now":                                      "other.self_share",
		"main.(*tracedDP).Ingress":                      "other.self_share",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %s, want %s", fn, got, want)
		}
	}
}
