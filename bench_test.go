// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (run via `go test -bench=. -benchmem`), plus
// micro-benchmarks of the core data structures. The macro benchmarks use
// the quick experiment configuration; `cmd/ceio-bench` (without -quick)
// produces the full-length numbers recorded in EXPERIMENTS.md.
package ceio_test

import (
	"testing"

	"ceio"
	"ceio/internal/cache"
	"ceio/internal/core"
	"ceio/internal/experiments"
	"ceio/internal/fleet"
	"ceio/internal/pkt"
	"ceio/internal/ring"
	"ceio/internal/runner"
	"ceio/internal/sim"
	"ceio/internal/workload"
)

// --- Macro benchmarks: one per paper table/figure -----------------------

func benchTables(b *testing.B, run func(experiments.Config) int) {
	b.ReportAllocs()
	cfg := experiments.QuickConfig()
	for i := 0; i < b.N; i++ {
		if n := run(cfg); n == 0 {
			b.Fatal("experiment produced no output")
		}
	}
}

// BenchmarkFig4DynamicFlows regenerates Figure 4a (motivation: dynamic
// flow distribution degradation of HostCC/ShRing).
func BenchmarkFig4DynamicFlows(b *testing.B) {
	benchTables(b, func(c experiments.Config) int { return len(experiments.Fig4(c)[0].Rows) })
}

// BenchmarkFig4Burst regenerates Figure 4b (motivation: network burst).
func BenchmarkFig4Burst(b *testing.B) {
	benchTables(b, func(c experiments.Config) int { return len(experiments.Fig4(c)[1].Rows) })
}

// BenchmarkFig9PacketSize regenerates Figure 9 (throughput and LLC miss
// rate vs packet size for eRPC(DPDK), eRPC(RDMA), LineFS).
func BenchmarkFig9PacketSize(b *testing.B) {
	benchTables(b, func(c experiments.Config) int { return len(experiments.Fig9(c)) })
}

// BenchmarkFig10Dynamic regenerates Figure 10 (end-to-end dynamic
// scenarios including CEIO).
func BenchmarkFig10Dynamic(b *testing.B) {
	benchTables(b, func(c experiments.Config) int { return len(experiments.Fig10(c)) })
}

// BenchmarkFig11Paths regenerates Figure 11 (fast vs slow path vs
// ib_write_bw across message sizes).
func BenchmarkFig11Paths(b *testing.B) {
	benchTables(b, func(c experiments.Config) int { return len(experiments.Fig11(c).Rows) })
}

// BenchmarkFig12FlowScale regenerates Figure 12 (aggregate throughput vs
// thousands of flows under destination rotation).
func BenchmarkFig12FlowScale(b *testing.B) {
	benchTables(b, func(c experiments.Config) int { return len(experiments.Fig12(c).Rows) })
}

// BenchmarkTable2Latency regenerates Table 2 (P99/P99.9 of the 512B echo
// workload across stacks and methods).
func BenchmarkTable2Latency(b *testing.B) {
	benchTables(b, func(c experiments.Config) int { return len(experiments.Table2(c).Rows) })
}

// BenchmarkTable3PathLatency regenerates Table 3 (unloaded fast/slow path
// latency vs raw RDMA write).
func BenchmarkTable3PathLatency(b *testing.B) {
	benchTables(b, func(c experiments.Config) int { return len(experiments.Table3(c).Rows) })
}

// BenchmarkTable4Mixed regenerates Table 4 (mixed CPU-involved/CPU-bypass
// ratios, CEIO with and without optimisations).
func BenchmarkTable4Mixed(b *testing.B) {
	benchTables(b, func(c experiments.Config) int { return len(experiments.Table4(c).Rows) })
}

// BenchmarkLimitsLowPressure regenerates §6.3's low-memory-pressure
// scenario (64B VxLAN; all methods alike).
func BenchmarkLimitsLowPressure(b *testing.B) {
	benchTables(b, func(c experiments.Config) int { return len(experiments.Limits(c)[0].Rows) })
}

// BenchmarkLimitsJumbo regenerates §6.3's jumbo-frame scenario (baseline
// reaches line rate despite misses).
func BenchmarkLimitsJumbo(b *testing.B) {
	benchTables(b, func(c experiments.Config) int { return len(experiments.Limits(c)[1].Rows) })
}

// BenchmarkAblationDesignChoices runs the lazy-release / async-drain /
// reallocation / MPQ ablations DESIGN.md calls out.
func BenchmarkAblationDesignChoices(b *testing.B) {
	benchTables(b, func(c experiments.Config) int { return len(experiments.Ablation(c).Rows) })
}

// BenchmarkSlowPathSubstrate runs the future-work slow-path substrate
// ablation (on-NIC DRAM vs SRAM, §6.4).
func BenchmarkSlowPathSubstrate(b *testing.B) {
	benchTables(b, func(c experiments.Config) int { return len(experiments.SlowPathAblation(c).Rows) })
}

// BenchmarkBurstSensitivity runs the on/off incast extension of Fig. 10b.
func BenchmarkBurstSensitivity(b *testing.B) {
	benchTables(b, func(c experiments.Config) int { return len(experiments.Burstiness(c).Rows) })
}

// BenchmarkFleetFailover runs the rack-scale failover experiment on a
// 4-host rack (host 0 killed mid-window, balancer migrates and audits).
func BenchmarkFleetFailover(b *testing.B) {
	benchTables(b, func(c experiments.Config) int {
		c.FleetHosts = 4
		return len(experiments.Fleet(c).Rows)
	})
}

// --- Simulator throughput benchmarks ------------------------------------

// BenchmarkSimulatedPacketRate measures how many simulated packets per
// wall-clock second the full CEIO machine sustains (the simulator's own
// performance, not the modelled system's).
func BenchmarkSimulatedPacketRate(b *testing.B) {
	b.ReportAllocs()
	sim := ceio.NewSimulator(ceio.DefaultConfig(), ceio.ArchCEIO)
	for i := 1; i <= 4; i++ {
		sim.AddFlow(ceio.KVFlow(i, 256))
	}
	before := sim.Snapshot().DeliveredPkts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunFor(100 * ceio.Microsecond)
	}
	b.StopTimer()
	delivered := sim.Snapshot().DeliveredPkts - before
	b.ReportMetric(float64(delivered)/float64(b.N), "pkts/op")
}

// steadyStateArchs are the rows of the machine steady-state allocation
// gate: every architecture, each with the warm-up that brings its pooled
// free lists to their high-water mark. RDCA's per-partition pend FIFO
// backing arrays keep growing for a few ms, so it warms longest.
var steadyStateArchs = []struct {
	arch   ceio.Architecture
	warmup ceio.Duration
}{
	{ceio.ArchBaseline, 2 * ceio.Millisecond},
	{ceio.ArchHostCC, 2 * ceio.Millisecond},
	{ceio.ArchShRing, 2 * ceio.Millisecond},
	{ceio.ArchCEIO, 2 * ceio.Millisecond},
	{ceio.ArchRDCA, 20 * ceio.Millisecond},
}

// steadyStateSim builds arch with four KV flows running the nat64,firewall
// pipeline plus one CPU-bypass file-transfer flow, and runs it through
// warmup.
func steadyStateSim(arch ceio.Architecture, warmup ceio.Duration) *ceio.Simulator {
	sim := ceio.NewSimulator(ceio.DefaultConfig(), arch)
	for i := 1; i <= 4; i++ {
		f := ceio.KVFlow(i, 256)
		f.Pipeline = []string{"nat64", "firewall"}
		sim.AddFlow(f)
	}
	sim.AddFlow(ceio.FileTransferFlow(5, 1024, 64))
	sim.RunFor(warmup)
	return sim
}

// BenchmarkMachineSteadyState drives the full machine hot path of every
// architecture — emit, datapath admission, DMA commit, LLC insert,
// pipelined CPU cost with state touches, delivery, CPU-bypass consume —
// after warm-up, asserting via the CI -benchmem gate that the per-packet
// path performs no allocation on any row.
func BenchmarkMachineSteadyState(b *testing.B) {
	for _, row := range steadyStateArchs {
		b.Run(string(row.arch), func(b *testing.B) {
			b.ReportAllocs()
			sim := steadyStateSim(row.arch, row.warmup)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.RunFor(10 * ceio.Microsecond)
			}
		})
	}
}

// TestMachineSteadyStateZeroAlloc is the tier-1 form of the benchmark's
// allocation gate: after warm-up, 10 µs of simulated traffic allocates
// nothing on any architecture.
func TestMachineSteadyStateZeroAlloc(t *testing.T) {
	for _, row := range steadyStateArchs {
		t.Run(string(row.arch), func(t *testing.T) {
			sim := steadyStateSim(row.arch, row.warmup)
			if avg := testing.AllocsPerRun(200, func() { sim.RunFor(10 * ceio.Microsecond) }); avg != 0 {
				t.Fatalf("%s steady state allocates %.0f objects per 10 µs, want 0", row.arch, avg)
			}
		})
	}
}

// BenchmarkFleetEventThroughput measures raw event-dispatch throughput
// (engine events per wall-clock second) on the 16-host rack scenario with
// 3 flows per host — the schedule-heavy macro workload ROADMAP item 1
// names as the scale ceiling. Reported as Mevents/sec, the unit of the
// heap→wheel trajectory in the "engine hot-path overhaul" entry of
// CHANGES.md.
func BenchmarkFleetEventThroughput(b *testing.B) {
	b.ReportAllocs()
	f, err := fleet.New(fleet.DefaultConfig(16, workload.MethodCEIO))
	if err != nil {
		b.Fatal(err)
	}
	id := 1
	for h := 0; h < 16; h++ {
		f.AddFlow(workload.ERPCKV(id, 144, workload.DPDK))
		id++
		f.AddFlow(workload.ERPCKV(id, 144, workload.DPDK))
		id++
		f.AddFlow(workload.LineFS(id, 1024, 1024))
		id++
	}
	f.RunFor(50 * sim.Microsecond) // warm up flows and ring occupancy
	before := f.EventsProcessed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.RunFor(100 * sim.Microsecond)
	}
	b.StopTimer()
	events := f.EventsProcessed() - before
	b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/sec")
}

// benchFleet64Sharded steps a 64-host rack (3 flows per host, all
// control traffic over the ToR fabric) with its host shards fanned
// across a pool of the given width. The Serial/Parallel8 pair measures
// the sharded-execution speedup (simbench reports it as runner.speedup
// on rack-failover); on a single-CPU runner the pair mostly measures
// barrier overhead, so read the delta together with the host CPU count.
func benchFleet64Sharded(b *testing.B, workers int) {
	b.ReportAllocs()
	pool := runner.NewPool(workers)
	defer pool.Close()
	cfg := fleet.DefaultConfig(64, workload.MethodCEIO)
	cfg.Pool = pool
	f, err := fleet.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	id := 1
	for h := 0; h < 64; h++ {
		f.AddFlow(workload.ERPCKV(id, 144, workload.DPDK))
		id++
		f.AddFlow(workload.ERPCKV(id, 144, workload.DPDK))
		id++
		f.AddFlow(workload.LineFS(id, 1024, 1024))
		id++
	}
	f.RunFor(50 * sim.Microsecond)
	before := f.EventsProcessed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.RunFor(100 * sim.Microsecond)
	}
	b.StopTimer()
	events := f.EventsProcessed() - before
	b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/sec")
}

func BenchmarkFleet64ShardedSerial(b *testing.B)    { benchFleet64Sharded(b, 1) }
func BenchmarkFleet64ShardedParallel8(b *testing.B) { benchFleet64Sharded(b, 8) }

// --- Micro benchmarks of the core data structures ------------------------

func BenchmarkEngineScheduling(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	fn := func(any) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(sim.Time(i%64), fn, nil)
		eng.Step()
	}
}

// BenchmarkEngineSchedulingDeep keeps 4096 events pending with horizons
// spread across timing-wheel levels (64ns to 16ms lookahead), the regime
// where the binary heap's O(log n) sift and per-push boxing dominate.
func BenchmarkEngineSchedulingDeep(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	fn := func(any) {}
	spread := []sim.Time{64, 3 * 1024, 200 * 1024, 16 * 1024 * 1024}
	for i := 0; i < 4096; i++ {
		eng.After(spread[i%len(spread)], fn, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(spread[i%len(spread)], fn, nil)
		eng.Step()
	}
}

// BenchmarkEngineEveryTickers drives 256 concurrent periodic tickers with
// co-prime periods — the sampler/health-probe shape every machine layer
// hangs off the engine.
func BenchmarkEngineEveryTickers(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < 256; i++ {
		eng.Every(sim.Time(i), sim.Time(97+2*i), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func BenchmarkLLCInsertConsume(b *testing.B) {
	b.ReportAllocs()
	llc := cache.NewLLC(6 << 20)
	// Sixteen buffers in flight, each slot's owner holding its line's Ref
	// the way a packet descriptor does.
	var refs [16]cache.Ref
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &refs[i%16]
		if i >= 16 {
			llc.ConsumeIn(0, *r)
		}
		llc.InsertIOSized(0, r, cache.BufID(i), 2048, 2048)
	}
}

func BenchmarkHWRingPostPop(b *testing.B) {
	b.ReportAllocs()
	r := ring.NewHWRing(1024)
	p := &pkt.Packet{Size: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Post(p)
		r.Pop()
	}
}

func BenchmarkSWRingMixedPath(b *testing.B) {
	b.ReportAllocs()
	r := ring.NewSWRing(1024)
	p := &pkt.Packet{Size: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 0 {
			idx, _ := r.PushSlow(p)
			r.MarkReady(idx)
		} else {
			r.PushFast(p)
		}
		r.PopReady()
	}
}

func BenchmarkCreditConsumeRelease(b *testing.B) {
	b.ReportAllocs()
	ctrl := core.NewCreditController(3072)
	ctrl.AddFlows(1, 2, 3, 4)
	accts := []*core.FlowCredits{ctrl.Flow(1), ctrl.Flow(2), ctrl.Flow(3), ctrl.Flow(4)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := accts[i%4]
		if ctrl.Consume(f) {
			ctrl.Release(f, 1)
		}
	}
}

func BenchmarkCreditAlgorithm1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctrl := core.NewCreditController(3072)
		ids := make([]int, 64)
		for j := range ids {
			ids[j] = j + 1
		}
		ctrl.AddFlows(ids...)
		ctrl.AddFlows(1000)
	}
}

func BenchmarkDCTCPFeedback(b *testing.B) {
	b.ReportAllocs()
	m := ceio.NewSimulator(ceio.DefaultConfig(), ceio.ArchBaseline).Machine()
	f := m.AddFlow(workload.ERPCKV(1, 144, workload.DPDK))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.CC.OnAck(i%64 == 0)
	}
}
