package core_test

import (
	"testing"

	"ceio/internal/baseline"
	"ceio/internal/core"
	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/sim"
)

func kvSpec(id, size int) iosys.FlowSpec {
	return iosys.FlowSpec{
		ID: id, Kind: iosys.CPUInvolved, PktSize: size, MsgPkts: 1,
		Cost: iosys.CostModel{PerPacket: 150 * sim.Nanosecond, ZeroCopy: true},
	}
}

func dfsSpec(id int) iosys.FlowSpec {
	return iosys.FlowSpec{ID: id, Kind: iosys.CPUBypass, PktSize: 1500, MsgPkts: 256}
}

type runResult struct {
	missRate float64
	mpps     float64
	gbps     float64
}

func runStaticKV(t *testing.T, dp iosys.Datapath, nFlows, pktSize int) runResult {
	t.Helper()
	cfg := iosys.DefaultConfig()
	m := iosys.NewMachine(cfg, dp)
	for i := 1; i <= nFlows; i++ {
		m.AddFlow(kvSpec(i, pktSize))
	}
	m.Run(10 * sim.Millisecond)
	m.ResetWindow()
	m.Run(30 * sim.Millisecond)
	now := m.Eng.Now()
	return runResult{
		missRate: m.LLC.MissRate(),
		mpps:     m.InvolvedMeter.Mpps(now),
		gbps:     m.Delivered.Gbps(now),
	}
}

// The headline static comparison (Fig. 9 regime, small packets): CEIO
// eliminates LLC misses and beats every baseline on throughput; HostCC
// lands between the unmanaged baseline and CEIO.
func TestCEIOBeatsBaselinesStatic(t *testing.T) {
	base := runStaticKV(t, baseline.NewLegacy(), 8, 256)
	host := runStaticKV(t, baseline.NewHostCC(baseline.DefaultHostCCConfig()), 8, 256)
	shr := runStaticKV(t, baseline.NewShRing(baseline.DefaultShRingConfig()), 8, 256)
	ceio := runStaticKV(t, core.New(core.DefaultOptions()), 8, 256)

	t.Logf("baseline: miss=%.2f mpps=%.2f", base.missRate, base.mpps)
	t.Logf("hostcc:   miss=%.2f mpps=%.2f", host.missRate, host.mpps)
	t.Logf("shring:   miss=%.2f mpps=%.2f", shr.missRate, shr.mpps)
	t.Logf("ceio:     miss=%.2f mpps=%.2f", ceio.missRate, ceio.mpps)

	if ceio.missRate > 0.05 {
		t.Errorf("CEIO miss rate = %.3f, want ~1%% (paper)", ceio.missRate)
	}
	if base.missRate < 0.5 {
		t.Errorf("baseline miss rate = %.2f, want high (paper: 88%%)", base.missRate)
	}
	if ceio.mpps <= base.mpps {
		t.Errorf("CEIO %.2f Mpps should beat baseline %.2f", ceio.mpps, base.mpps)
	}
	if ceio.mpps < host.mpps*0.99 {
		t.Errorf("CEIO %.2f Mpps should be >= HostCC %.2f", ceio.mpps, host.mpps)
	}
	if ceio.mpps < shr.mpps*0.99 {
		t.Errorf("CEIO %.2f Mpps should be >= ShRing %.2f", ceio.mpps, shr.mpps)
	}
	if host.mpps <= base.mpps {
		t.Errorf("HostCC %.2f Mpps should beat baseline %.2f", host.mpps, base.mpps)
	}
}

// Credit conservation must hold end-to-end through a full simulation with
// flow churn.
func TestCEIOCreditConservationEndToEnd(t *testing.T) {
	cfg := iosys.DefaultConfig()
	dp := core.New(core.DefaultOptions())
	m := iosys.NewMachine(cfg, dp)
	for i := 1; i <= 8; i++ {
		m.AddFlow(kvSpec(i, 512))
	}
	check := func() {
		if err := dp.Controller().CheckInvariant(); err != nil {
			t.Fatalf("at %v: %v", m.Eng.Now(), err)
		}
	}
	m.Run(5 * sim.Millisecond)
	check()
	m.RemoveFlow(3)
	m.RemoveFlow(4)
	m.AddFlow(dfsSpec(100))
	m.Run(10 * sim.Millisecond)
	check()
	m.AddFlow(kvSpec(200, 256))
	m.Run(15 * sim.Millisecond)
	check()
}

// Ordering across fast/slow path alternations: per-flow delivery sequence
// must be strictly increasing even when credits run out mid-stream.
func TestCEIODeliveryOrderAcrossPaths(t *testing.T) {
	cfg := iosys.DefaultConfig()
	opts := core.DefaultOptions()
	opts.TotalCredits = 64 // tiny credit pool forces frequent path flips
	dp := core.New(opts)
	m := iosys.NewMachine(cfg, dp)
	last := map[int]uint64{}
	sawSlow := false
	m.OnDeliver = func(f *iosys.Flow, p *pkt.Packet) {
		if prev, ok := last[f.ID]; ok && p.Seq != prev+1 {
			t.Fatalf("flow %d: seq %d after %d (path=%v)", f.ID, p.Seq, prev, p.Path)
		}
		last[f.ID] = p.Seq
		if p.Path == pkt.PathSlow {
			sawSlow = true
		}
	}
	for i := 1; i <= 2; i++ {
		m.AddFlow(kvSpec(i, 512))
	}
	m.Run(10 * sim.Millisecond)
	if !sawSlow {
		t.Fatal("scenario never exercised the slow path")
	}
	if dp.SlowPackets == 0 || dp.FastPackets == 0 {
		t.Fatalf("fast=%d slow=%d, want both paths used", dp.FastPackets, dp.SlowPackets)
	}
	if dp.Drains == 0 {
		t.Fatal("fast path never resumed after a drain")
	}
}

// ForceSlowPath (Fig. 11's slow-path curve) must carry all traffic
// through on-NIC memory and still deliver in order.
func TestCEIOForcedSlowPath(t *testing.T) {
	cfg := iosys.DefaultConfig()
	opts := core.DefaultOptions()
	opts.ForceSlowPath = true
	dp := core.New(opts)
	m := iosys.NewMachine(cfg, dp)
	f := m.AddFlow(kvSpec(1, 1024))
	m.Run(10 * sim.Millisecond)
	if dp.FastPackets != 0 {
		t.Fatalf("fast packets = %d, want 0", dp.FastPackets)
	}
	if f.Delivered.Packets == 0 {
		t.Fatal("slow path delivered nothing")
	}
	// Slow path adds on-NIC memory and PCIe read latency.
	if p50 := f.Latency.P50(); p50 < int64(cfg.NICMemLatency) {
		t.Fatalf("slow path P50 = %dns, implausibly low", p50)
	}
}

// CPU-bypass flows with large messages should be pushed to the slow path
// by lazy credit release (the paper's Q1/Q2 design goal), leaving the
// fast path to CPU-involved flows.
func TestCEIOBypassFlowsYieldFastPath(t *testing.T) {
	cfg := iosys.DefaultConfig()
	dp := core.New(core.DefaultOptions())
	m := iosys.NewMachine(cfg, dp)
	for i := 1; i <= 4; i++ {
		m.AddFlow(kvSpec(i, 256))
	}
	for i := 5; i <= 8; i++ {
		m.AddFlow(dfsSpec(i))
	}
	m.Run(20 * sim.Millisecond)
	// Count slow-path share per kind via steering actions over time is
	// noisy; instead verify involved flows dominate fast-path credit use:
	// their miss rate stays near zero and they deliver at high rate.
	if mr := m.LLC.MissRate(); mr > 0.15 {
		t.Errorf("mixed-flow miss rate = %.2f, want low", mr)
	}
	inv := m.InvolvedMeter.Mpps(m.Eng.Now())
	if inv < 5 {
		t.Errorf("involved throughput = %.2f Mpps, want healthy share", inv)
	}
	if byp := m.BypassMeter.Gbps(m.Eng.Now()); byp < 5 {
		t.Errorf("bypass throughput = %.2f Gbps, want > 5", byp)
	}
}

// Determinism end-to-end for the CEIO path.
func TestCEIODeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		cfg := iosys.DefaultConfig()
		dp := core.New(core.DefaultOptions())
		m := iosys.NewMachine(cfg, dp)
		for i := 1; i <= 4; i++ {
			m.AddFlow(kvSpec(i, 300))
		}
		m.Run(5 * sim.Millisecond)
		return m.Delivered.Packets, dp.SlowPackets
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
}

// A packet that reaches the controller after its flow was torn down
// (it was on the wire during RemoveFlow) goes back to the descriptor
// pool, and is not counted as a drop.
func TestCEIOIngressAfterRemoveRecyclesPacket(t *testing.T) {
	dp := core.New(core.DefaultOptions())
	m := iosys.NewMachine(iosys.DefaultConfig(), dp)
	m.AddFlow(kvSpec(1, 512))
	f := m.Flows[1]
	p := m.PktPool.Get()
	p.FlowID, p.Size = 1, 512
	m.RemoveFlow(1)
	dp.Ingress(f, p)
	if m.PktPool.Gets != m.PktPool.Puts {
		t.Fatalf("packet pool gets=%d puts=%d: the torn-down flow's packet leaked",
			m.PktPool.Gets, m.PktPool.Puts)
	}
	if m.TotalDrops != 0 || f.Drops != 0 {
		t.Fatalf("drops machine=%d flow=%d, want 0", m.TotalDrops, f.Drops)
	}
}
