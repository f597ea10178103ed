package workload

import (
	"ceio/internal/iosys"
	"ceio/internal/sim"
)

// ScenarioConfig parameterises the dynamic scenarios of §2.3/§6.2. The
// paper swaps flows every 10 seconds on the testbed; epochs here are
// scaled down (simulated time) while preserving the ordering of control
// timescales: epoch >> CCA RTT >> per-packet time.
type ScenarioConfig struct {
	Epoch  sim.Time // epoch length (default 20ms)
	Epochs int      // number of epochs (default 4)
	Warmup sim.Time // excluded from measurement at the start of each run
	Sample sim.Time // sampler interval (default 500µs)
}

// DefaultScenarioConfig returns the scaled dynamic-scenario parameters.
func DefaultScenarioConfig() ScenarioConfig {
	return ScenarioConfig{
		Epoch:  20 * sim.Millisecond,
		Epochs: 4,
		Warmup: 5 * sim.Millisecond,
		Sample: 500 * sim.Microsecond,
	}
}

// DynamicResult aggregates a dynamic-scenario run.
type DynamicResult struct {
	Method       Method
	InvolvedMpps float64 // mean CPU-involved throughput post-warmup
	WorstMpps    float64 // worst sampled interval post-warmup
	MissRate     float64 // mean LLC miss rate post-warmup
	Series       *iosys.Sampler
}

// RunDynamicDistribution reproduces the dynamic flow distribution
// scenario (Fig. 4a / Fig. 10a): eRPC starts with eight CPU-involved
// flows; at each epoch boundary, two of them are replaced with
// CPU-bypass LineFS flows.
func RunDynamicDistribution(method Method, cfg iosys.Config, sc ScenarioConfig) DynamicResult {
	m := iosys.NewMachine(cfg, NewDatapath(method))
	for i := 1; i <= 8; i++ {
		m.AddFlow(ERPCKV(i, 144, DPDK))
	}
	sampler := iosys.NewSampler(m, sc.Sample)

	nextID := 100
	swapped := 0
	for e := 1; e < sc.Epochs; e++ {
		e := e
		m.Eng.At(sim.Time(e)*sc.Epoch, func(any) {
			// Replace two CPU-involved flows with CPU-bypass flows.
			for k := 0; k < 2 && swapped < 8; k++ {
				m.RemoveFlow(1 + swapped)
				m.AddFlow(LineFS(nextID, 1024, 1024))
				nextID++
				swapped++
			}
		}, nil)
	}
	m.Run(sc.Warmup)
	m.ResetWindow()
	m.Run(sim.Time(sc.Epochs) * sc.Epoch)
	return summarize(method, m, sampler, sc)
}

// RunNetworkBurst reproduces the network burst scenario (Fig. 4b /
// Fig. 10b): eight steady CPU-involved flows, plus two burst
// CPU-involved flows (on two extra cores) that arrive at each epoch
// boundary and depart halfway through the epoch.
func RunNetworkBurst(method Method, cfg iosys.Config, sc ScenarioConfig) DynamicResult {
	m := iosys.NewMachine(cfg, NewDatapath(method))
	for i := 1; i <= 8; i++ {
		m.AddFlow(ERPCKV(i, 144, DPDK))
	}
	sampler := iosys.NewSampler(m, sc.Sample)

	nextID := 200
	for e := 1; e < sc.Epochs; e++ {
		e := e
		m.Eng.At(sim.Time(e)*sc.Epoch, func(any) {
			a, b := nextID, nextID+1
			nextID += 2
			m.AddFlow(ERPCKV(a, 144, DPDK))
			m.AddFlow(ERPCKV(b, 144, DPDK))
			m.Eng.After(sc.Epoch/2, func(any) {
				m.RemoveFlow(a)
				m.RemoveFlow(b)
			}, nil)
		}, nil)
	}
	m.Run(sc.Warmup)
	m.ResetWindow()
	m.Run(sim.Time(sc.Epochs) * sc.Epoch)
	return summarize(method, m, sampler, sc)
}

func summarize(method Method, m *iosys.Machine, sampler *iosys.Sampler, sc ScenarioConfig) DynamicResult {
	sampler.Stop()
	post := sampler.InvolvedMpps.After(sc.Warmup)
	miss := sampler.MissRate.After(sc.Warmup)
	return DynamicResult{
		Method:       method,
		InvolvedMpps: post.Mean(),
		WorstMpps:    post.Min(),
		MissRate:     miss.Mean(),
		Series:       sampler,
	}
}

// ExpectedMpps computes the paper's "expected performance" reference
// line: the number of CPU-involved flows times the single-core
// throughput of a flow with sufficient LLC (measured with a
// one-flow CEIO run, which is miss-free by construction).
func ExpectedMpps(cfg iosys.Config, involvedFlows int) float64 {
	m := iosys.NewMachine(cfg, NewDatapath(MethodCEIO))
	m.AddFlow(ERPCKV(1, 144, DPDK))
	m.Run(5 * sim.Millisecond)
	m.ResetWindow()
	m.Run(15 * sim.Millisecond)
	return m.InvolvedMeter.Mpps(m.Eng.Now()) * float64(involvedFlows)
}
