package core_test

import (
	"testing"

	"ceio/internal/baseline"
	"ceio/internal/core"
	"ceio/internal/flowsteer"
	"ceio/internal/iosys"
	"ceio/internal/sim"
)

// With a bounded host buffer pool (the post_recv pool of §5), the legacy
// path must drop packets on exhaustion while CEIO parks them in on-NIC
// memory — the elastic buffer absorbs host-side shortage too.
func TestHostBufferExhaustionElasticVsDrops(t *testing.T) {
	cfg := iosys.DefaultConfig()
	cfg.HostBuffers = 256 // far below the load's in-flight demand

	mb := iosys.NewMachine(cfg, baseline.NewLegacy())
	for i := 1; i <= 4; i++ {
		mb.AddFlow(kvSpec(i, 512))
	}
	mb.Run(5 * sim.Millisecond)
	if mb.NoHostBufDrops == 0 {
		t.Fatal("baseline should drop on host-buffer exhaustion")
	}

	dp := core.New(core.DefaultOptions())
	mc := iosys.NewMachine(cfg, dp)
	for i := 1; i <= 4; i++ {
		mc.AddFlow(kvSpec(i, 512))
	}
	mc.Run(5 * sim.Millisecond)
	if mc.NoHostBufDrops != 0 {
		t.Fatalf("CEIO dropped %d packets on buffer exhaustion; they belong on the NIC", mc.NoHostBufDrops)
	}
	if dp.SlowPackets == 0 {
		t.Fatal("CEIO should have diverted to the slow path under buffer shortage")
	}
	if mc.Delivered.Packets == 0 {
		t.Fatal("CEIO made no progress")
	}
	// Pool accounting must stay consistent end to end.
	if err := mc.HostPool.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
	if err := mb.HostPool.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// Exhausting the on-NIC memory itself (pathologically small elastic
// buffer) must produce accounted drops, not hangs.
func TestNICMemoryExhaustion(t *testing.T) {
	cfg := iosys.DefaultConfig()
	cfg.NICMemBytes = 64 << 10 // 32 buffers of elastic capacity
	opts := core.DefaultOptions()
	opts.ForceSlowPath = true
	dp := core.New(opts)
	m := iosys.NewMachine(cfg, dp)
	f := m.AddFlow(kvSpec(1, 512))
	m.Run(5 * sim.Millisecond)
	if dp.NICMemDrops == 0 {
		t.Fatal("expected drops when on-NIC memory is exhausted")
	}
	if f.Delivered.Packets == 0 {
		t.Fatal("flow should still progress through the tiny buffer")
	}
	if m.NICMemUsed < 0 || m.NICMemUsed > cfg.NICMemBytes {
		t.Fatalf("NIC memory accounting out of bounds: %d", m.NICMemUsed)
	}
}

// Fault injection: a drop steering rule must discard traffic cleanly
// (credits conserved, no stuck state).
func TestSteeringDropInjection(t *testing.T) {
	dp := core.New(core.DefaultOptions())
	m := iosys.NewMachine(iosys.DefaultConfig(), dp)
	f := m.AddFlow(kvSpec(1, 512))
	m.Run(1 * sim.Millisecond)
	delivered := f.Delivered.Packets
	m.Steer.Set(m.Steer.Rule(1), flowsteer.ActionDrop)
	m.Run(2 * sim.Millisecond)
	// ActionDrop is not fast, so packets go to the slow path in this
	// datapath's interpretation — verify nothing deadlocks and credits
	// stay conserved either way.
	if f.Delivered.Packets <= delivered {
		t.Log("flow fully stalled under drop rule (acceptable)")
	}
	if err := dp.Controller().CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// The read-tag pool must bound outstanding PCIe reads under a wide
// slow-path fan-out.
func TestReadTagPoolBounded(t *testing.T) {
	cfg := iosys.DefaultConfig()
	opts := core.DefaultOptions()
	opts.ForceSlowPath = true
	dp := core.New(opts)
	m := iosys.NewMachine(cfg, dp)
	for i := 1; i <= 16; i++ {
		m.AddFlow(kvSpec(i, 512))
	}
	interval := 100 * sim.Microsecond
	for i := 0; i < 30; i++ {
		m.Run(m.Eng.Now() + interval)
		if out := m.DMA.OutstandingReads(); out > 32 {
			t.Fatalf("outstanding reads %d exceed the tag pool", out)
		}
	}
	if m.DMA.ReadStalls == 0 {
		t.Fatal("16 draining flows should contend for read tags")
	}
}
