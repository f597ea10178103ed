package baseline

import (
	"ceio/internal/iosys"
	"ceio/internal/sim"
	"ceio/internal/stats"
	"ceio/internal/transport"
)

// HostCCConfig parameterises the reactive controller.
type HostCCConfig struct {
	// ReactionDelay is the lag between detecting host congestion and the
	// CCA rate reduction taking effect at the sender — the "slow
	// response" the paper critiques (§2.3): the congestion signal is
	// generated only once LLC misses are already occurring.
	ReactionDelay sim.Time
}

// DefaultHostCCConfig matches the deployment in §6.1: a kernel module
// monitoring IIO occupancy and PCIe/memory pressure, triggering DCTCP.
func DefaultHostCCConfig() HostCCConfig {
	return HostCCConfig{ReactionDelay: 40 * sim.Microsecond}
}

// HostCC layers reactive host congestion control over the legacy
// datapath: when the sampled congestion signals (IIO occupancy, LLC miss
// rate) indicate the I/O flow is outrunning the CPU or memory controller,
// it triggers the network CCA to reduce the senders' rates.
type HostCC struct {
	Legacy
	cfg HostCCConfig

	lastHits, lastMisses uint64
	lastTrigger          map[int]sim.Time

	// Triggers counts congestion-driven CCA invocations.
	Triggers uint64
}

// NewHostCC builds the controller with cfg.
func NewHostCC(cfg HostCCConfig) *HostCC {
	return &HostCC{cfg: cfg, lastTrigger: make(map[int]sim.Time)}
}

// Name implements iosys.Datapath.
func (h *HostCC) Name() string { return "HostCC" }

// The real HostCC's signals (IIO occupancy, PCIe bandwidth) track LLC
// overflow only loosely and reactively: congestion is visible only once
// misses are already happening, and the kernel-module control loop plus
// CCA invocation add tens of microseconds. The coarse thresholds and long
// cooldown below reproduce that slack — the "slow response" limitation
// of §2.3.
const (
	// period is the kernel module's sampling interval.
	period sim.Time = 10 * sim.Microsecond
	// missThreshold is the per-period LLC miss fraction that counts as
	// host congestion.
	missThreshold float64 = 0.40
	// iioThreshold is the IIO fill fraction that counts as congestion.
	iioThreshold float64 = 0.5
	// cooldown limits how often a given flow is force-reduced.
	cooldown sim.Time = 80 * sim.Microsecond
)

// Attach starts the monitoring loop.
func (h *HostCC) Attach(m *iosys.Machine) {
	h.Legacy.Attach(m)
	m.Eng.Every(period, period, h.monitor)
}

func (h *HostCC) monitor() {
	m := h.m
	hits, misses := m.LLC.Hits, m.LLC.Misses
	dHits, dMisses := hits-h.lastHits, misses-h.lastMisses
	h.lastHits, h.lastMisses = hits, misses

	congested := false
	if m.IIO.Fill() > iioThreshold {
		congested = true
	}
	if mr := stats.Ratio(dMisses, dHits+dMisses); mr > missThreshold && dMisses > 8 {
		congested = true
	}
	if !congested {
		return
	}
	now := m.Eng.Now()
	for id, f := range m.Flows {
		if last, ok := h.lastTrigger[id]; ok && now-last < cooldown {
			continue
		}
		h.lastTrigger[id] = now
		h.Triggers++
		// The reduction reaches the sender only after the reaction delay;
		// by then more packets have already missed the LLC.
		m.Eng.After(h.cfg.ReactionDelay, forceReduce, f.CC)
	}
}

func forceReduce(arg any) { arg.(*transport.FlowCC).ForceReduce() }

var _ iosys.Datapath = (*HostCC)(nil)
