package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"ceio/internal/faults"
	"ceio/internal/fleet"
	"ceio/internal/invariants"
	"ceio/internal/iosys"
	"ceio/internal/runner"
	"ceio/internal/sim"
	"ceio/internal/workload"
)

// A run is one architecture instance of a workload: build the machine
// (or rack), establish the flows, warm up, reset the window, measure,
// check. A pass runs a workload's runs back to back; the benchmark
// repeats passes closed-loop until its time is up. Every pass of one
// seed simulates exactly the same thing, so counts and modelled
// outputs repeat bit for bit while host times vary.

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name   string
	why    string // one line, copied into BENCHMARK.json
	params string // stamped beside every result
	archs  []string
	rack   bool
	// pass runs every run of one pass for the given seed.
	pass func(seed int64, o passOpts) []runResult
}

// passOpts selects how a pass is observed. None of it changes what is
// simulated: a traced pass must produce the untraced fingerprint.
type passOpts struct {
	spans *spanLog // nil: untraced (no datapath wrapper, no spans)
	pool  int      // rack worker-pool width; <= 1 steps shards serially
}

// runResult is what one run measured and modelled.
type runResult struct {
	arch               string
	setup, measure     time.Duration
	events             uint64  // engine events in the measured window
	counts             counts  // registry counter deltas over the measured window
	allocs, allocBytes uint64  // heap allocations in the measured window
	llcFill            float64 // DDIO-region occupancy / capacity when warm-up ended
	dp                 dpStats // datapath wrapper totals (traced runs only)
	modelled           string  // canonical modelled outputs: the fingerprint input
	failures           []string
}

func (r runResult) delivered() uint64 { return uint64(r.counts["iosys.delivered.packets_total"]) }

// sampleEvery is the simulated-time step between NIC-memory samples. The
// machine keeps no high-water mark, so the benchmark steps the clock and
// samples from outside; stepping RunUntil changes no modelled output.
const sampleEvery = 10 * sim.Microsecond

// auditEvery is the invariant auditors' sweep period.
const auditEvery = 100 * sim.Microsecond

var workloads = []*workloadDef{
	{
		name:   "kv-5arch",
		why:    "peak-rate 144 B KV path on all five architectures: stresses the event chain, hot maps, latency records and baseline closures",
		params: "1 host, 8 eRPC-KV flows x 144 B (cpu-involved, zero-copy), 6 MB DDIO, one core per flow; warm-up 1.5 ms, window 2 ms per arch",
		archs:  archNames,
		pass:   kvPass,
	},
	{
		name:   "burst-bulk",
		why:    "1 MB DDIO, bursty LineFS writers plus upf,firewall KV on CEIO and RDCA: stresses eviction, write-back, slow-path PCIe reads, no baselines",
		params: "1 host, 1 MB DDIO, 2 LineFS x 1024 B (cpu-bypass, 1 ms on / 1 ms off) + 2 eRPC-KV x 144 B (upf,firewall); warm-up 2 ms, window 4 ms (two burst periods) per arch",
		archs:  burstArchs,
		pass:   burstPass,
	},
	{
		name:   "rack-failover",
		why:    "16-host CEIO rack behind the ToR fabric, host 0 crashes and recovers: stresses lockstep epochs, fabric, balancer, migration, worker pool",
		params: "16 CEIO hosts, 2 eRPC-KV x 144 B + 1 LineFS x 1024 B per host, 1 us epochs; host 0 down from 1/4 to 1/2 of the window; warm-up 1 ms, window 1 ms",
		archs:  []string{"CEIO"},
		rack:   true,
		pass:   rackPass,
	},
}

// burstArchs are the architectures burst-bulk runs: the two with an
// elastic or windowed answer to a working set larger than DDIO.
var burstArchs = []string{"CEIO", "RDCA"}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// seededRates draws n initial send rates within 10% of an equal share
// of line rate, so each seed starts the congestion controllers somewhere
// else while every seed simulates about the same amount of work.
func seededRates(seed int64, n int, line float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = line / float64(n) * (0.9 + 0.2*rng.Float64())
	}
	return out
}

// singleHost describes one single-machine run.
type singleHost struct {
	arch            string
	cfg             iosys.Config
	flows           []iosys.FlowSpec
	warmup, measure sim.Time
}

func kvPass(seed int64, o passOpts) []runResult {
	var out []runResult
	for _, arch := range archNames {
		cfg := iosys.DefaultConfig()
		cfg.Seed = seed
		rates := seededRates(seed, 8, cfg.LinkBandwidth)
		var flows []iosys.FlowSpec
		for k := 0; k < 8; k++ {
			spec := workload.ERPCKV(k+1, 144, workload.DPDK)
			spec.InitialRate = rates[k]
			flows = append(flows, spec)
		}
		out = append(out, runSingle(singleHost{arch, cfg, flows, 1500 * sim.Microsecond, 2 * sim.Millisecond}, o))
	}
	return out
}

func burstPass(seed int64, o passOpts) []runResult {
	var out []runResult
	for _, arch := range burstArchs {
		cfg := iosys.DefaultConfig()
		cfg.Seed = seed
		cfg.LLCBytes = 1 << 20
		rates := seededRates(seed, 4, cfg.LinkBandwidth)
		var flows []iosys.FlowSpec
		for k := 0; k < 2; k++ {
			spec := workload.LineFS(k+1, 1024, 1024)
			spec.BurstOn, spec.BurstOff = sim.Millisecond, sim.Millisecond
			spec.InitialRate = rates[k]
			flows = append(flows, spec)
		}
		for k := 2; k < 4; k++ {
			spec := workload.ERPCKV(k+1, 144, workload.DPDK)
			spec.Pipeline = []string{"upf", "firewall"}
			spec.InitialRate = rates[k]
			flows = append(flows, spec)
		}
		// Warm-up and window are whole 2 ms burst periods, phase-locked
		// to the simulated clock.
		out = append(out, runSingle(singleHost{arch, cfg, flows, 2 * sim.Millisecond, 4 * sim.Millisecond}, o))
	}
	return out
}

// runSingle executes one single-machine run. A panic anywhere in the
// simulator fails the run instead of the benchmark.
func runSingle(h singleHost, o passOpts) (res runResult) {
	res.arch = h.arch
	defer func() {
		if p := recover(); p != nil {
			res.failures = append(res.failures, fmt.Sprintf("panic: %v", p))
		}
	}()
	runSpan := o.spans.begin(h.arch, 0)
	defer o.spans.end(runSpan)

	sp := o.spans.begin("setup", runSpan)
	t0 := time.Now()
	dp := workload.NewDatapath(workload.Method(h.arch))
	m, err := iosys.NewMachineE(h.cfg, dp)
	if err != nil {
		res.failures = append(res.failures, err.Error())
		return res
	}
	// The auditor must see the concrete datapath (it type-asserts
	// *core.CEIO for the credit audit), so the traced wrapper goes in
	// only after it is attached.
	audit := invariants.Attach(m, auditEvery)
	var wrap *tracedDP
	if o.spans != nil {
		wrap = &tracedDP{Datapath: dp}
		m.DP = wrap
	}
	for _, spec := range h.flows {
		if _, err := m.AddFlowE(spec); err != nil {
			res.failures = append(res.failures, err.Error())
			return res
		}
	}
	res.setup = time.Since(t0)
	o.spans.end(sp)

	sp = o.spans.begin("warmup", runSpan)
	m.Run(m.Eng.Now() + h.warmup)
	o.spans.end(sp)
	res.llcFill = m.Reg.Value("cache.llc.ddio.occupancy_bytes") / m.Reg.Value("cache.llc.capacity_bytes")
	warmDelivered := map[int]uint64{}
	for id, f := range m.Flows {
		warmDelivered[id] = f.Delivered.Packets
	}
	m.ResetWindow()

	sp = o.spans.begin("measure", runSpan)
	before := readCounts(m.Reg)
	ev0 := m.Eng.Processed
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	var nicPeak int64
	end := m.Eng.Now() + h.measure
	for m.Eng.Now() < end {
		m.Run(min(m.Eng.Now()+sampleEvery, end))
		nicPeak = max(nicPeak, m.NICMemUsed)
	}
	res.measure = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	o.spans.end(sp)
	res.events = m.Eng.Processed - ev0
	res.counts = readCounts(m.Reg).sub(before)
	res.allocs, res.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	if wrap != nil {
		res.dp = wrap.st
	}

	audit.Final()
	if err := audit.Err(); err != nil {
		res.failures = append(res.failures, firstLine(err.Error()))
	}
	res.failures = append(res.failures, flowLedger(m, warmDelivered)...)
	res.modelled = fmt.Sprintf("%s nicmem_peak=%d", machineModel(m, res.counts), nicPeak)
	return res
}

// flowLedger checks every flow's public counters: a flow can never have
// delivered plus dropped more packets than it generated.
func flowLedger(m *iosys.Machine, earlier map[int]uint64) []string {
	var bad []string
	for _, id := range sortedFlowIDs(m) {
		f := m.Flows[id]
		if got := earlier[id] + f.Delivered.Packets + f.Drops; f.Generated < got {
			bad = append(bad, fmt.Sprintf("flow %d: generated %d < delivered+drops %d", id, f.Generated, got))
		}
	}
	return bad
}

func sortedFlowIDs(m *iosys.Machine) []int {
	ids := make([]int, 0, len(m.Flows))
	for id := range m.Flows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// machineModel renders one machine's modelled outputs over the measured
// window in a canonical form: delivered packets and bytes, drops, LLC
// hits/misses/evictions and per-flow p50/p99 latency.
func machineModel(m *iosys.Machine, c counts) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pkts=%d bytes=%d drops=%d llc=%d/%d/%d lat_ns=",
		uint64(c["iosys.delivered.packets_total"]), uint64(c["iosys.delivered.bytes_total"]),
		uint64(c["iosys.drops_total"]), uint64(c["cache.llc.hits_total"]),
		uint64(c["cache.llc.misses_total"]), uint64(c["cache.llc.evictions_total"]))
	for i, id := range sortedFlowIDs(m) {
		if i > 0 {
			b.WriteByte(',')
		}
		f := m.Flows[id]
		fmt.Fprintf(&b, "%d:%d/%d", id, f.Latency.P50(), f.Latency.P99())
	}
	return b.String()
}

const rackHosts = 16

func rackPass(seed int64, o passOpts) []runResult {
	return []runResult{runRack(seed, o)}
}

// runRack executes the rack-failover run: a 16-host CEIO rack, host 0
// crashing a quarter into the window and recovering a quarter later.
func runRack(seed int64, o passOpts) (res runResult) {
	const warmup, measure = sim.Millisecond, sim.Millisecond
	res.arch = "CEIO"
	defer func() {
		if p := recover(); p != nil {
			res.failures = append(res.failures, fmt.Sprintf("panic: %v", p))
		}
	}()
	runSpan := o.spans.begin(res.arch, 0)
	defer o.spans.end(runSpan)

	sp := o.spans.begin("setup", runSpan)
	t0 := time.Now()
	pool := runner.NewPool(o.pool)
	defer pool.Close()
	fc := fleet.DefaultConfig(rackHosts, workload.MethodCEIO)
	fc.Machine.Seed = seed
	fc.Pool = pool
	probe := 5 * sim.Microsecond
	fc.ProbePeriod = probe
	fc.DrainDeadline = measure / 8
	fc.Plans = []faults.Plan{{HostCrash: faults.OneShot(warmup+measure/4, measure/4)}}
	f, err := fleet.New(fc)
	if err != nil {
		res.failures = append(res.failures, err.Error())
		return res
	}
	// Flow IDs, and so the rendezvous placement, are fixed: seeded IDs
	// would move the rack's total load by up to a fifth between seeds.
	rates := seededRates(seed, 3*rackHosts, fc.Machine.LinkBandwidth*rackHosts)
	for i := 0; i < rackHosts; i++ {
		specs := []iosys.FlowSpec{
			workload.ERPCKV(3*i+1, 144, workload.DPDK),
			workload.ERPCKV(3*i+2, 144, workload.DPDK),
			workload.LineFS(3*i+3, 1024, 1024),
		}
		for k, spec := range specs {
			spec.InitialRate = rates[3*i+k]
			if err := f.AddFlowE(spec); err != nil {
				res.failures = append(res.failures, err.Error())
				return res
			}
		}
	}
	audit := f.AttachAuditors(probe)
	res.setup = time.Since(t0)
	o.spans.end(sp)

	sp = o.spans.begin("warmup", runSpan)
	f.RunFor(warmup)
	o.spans.end(sp)
	var fill float64
	for i := 0; i < f.HostCount(); i++ {
		reg := f.HostMachine(i).Reg
		fill += reg.Value("cache.llc.ddio.occupancy_bytes") / reg.Value("cache.llc.capacity_bytes")
	}
	res.llcFill = fill / float64(f.HostCount())
	f.ResetWindow()

	sp = o.spans.begin("measure", runSpan)
	before := make([]counts, f.HostCount())
	for i := range before {
		before[i] = readCounts(f.HostMachine(i).Reg)
	}
	ev0, casc0 := f.EventsProcessed(), f.Eng.Cascades
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	var nicPeak int64
	for end := f.Now() + measure; f.Now() < end; {
		f.RunFor(min(sampleEvery, end-f.Now()))
		for i := 0; i < f.HostCount(); i++ {
			nicPeak = max(nicPeak, f.HostMachine(i).NICMemUsed)
		}
	}
	res.measure = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	o.spans.end(sp)
	res.events = f.EventsProcessed() - ev0
	res.allocs, res.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc

	audit.Final()
	if err := audit.Err(); err != nil {
		res.failures = append(res.failures, firstLine(err.Error()))
	}
	var b strings.Builder
	res.counts = counts{"engine.cascades_total": float64(f.Eng.Cascades - casc0)}
	for i := 0; i < f.HostCount(); i++ {
		m := f.HostMachine(i)
		res.failures = append(res.failures, flowLedger(m, nil)...)
		c := readCounts(m.Reg).sub(before[i])
		res.counts.add(c)
		fmt.Fprintf(&b, "h%d[%s] ", i, machineModel(m, c))
	}
	inj, dlv, drp, _ := f.FabricBytes()
	fmt.Fprintf(&b, "nicmem_peak=%d migrations=%d ttr_ns=%d/%d fabric_bytes=%d/%d/%d",
		nicPeak, f.Stats.Migrations, f.TTR.P50(), f.TimeToRecoverMax(), inj, dlv, drp)
	res.modelled = b.String()
	return res
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}
