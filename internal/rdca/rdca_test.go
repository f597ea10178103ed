package rdca_test

import (
	"testing"

	"ceio/internal/iosys"
	"ceio/internal/rdca"
	"ceio/internal/sim"
	"ceio/internal/tenant"
)

func kvSpec(id int) iosys.FlowSpec {
	return iosys.FlowSpec{
		ID: id, Kind: iosys.CPUInvolved, PktSize: 144, MsgPkts: 1,
		Cost: iosys.CostModel{PerPacket: 150 * sim.Nanosecond, ZeroCopy: true},
	}
}

func dfsSpec(id int) iosys.FlowSpec {
	return iosys.FlowSpec{ID: id, Kind: iosys.CPUBypass, PktSize: 1024, MsgPkts: 1024, PostPasses: 2}
}

// TestWindowConservationUnderRepartitioning is the FuzzRepartition-style
// conservation property for the window controller: with a dynamically
// repartitioned tenant carve shifting LLC ways underneath the windows,
// every audit sweep must find non-negative per-partition inFlight and
// pending counts, tagged in-flight buffers bounded by the admitted
// population, windows inside their (moving) caps, and LLC partition
// occupancies still summing to the machine total.
func TestWindowConservationUnderRepartitioning(t *testing.T) {
	specs, err := tenant.ParseSpecs("kv=2,bulk=3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := iosys.DefaultConfig()
	cfg.Tenancy = &tenant.Config{Mode: tenant.ModeDynamic, Specs: specs}
	dp := rdca.New(rdca.Options{})
	m := iosys.NewMachine(cfg, dp)

	kv := kvSpec(1)
	kv.Tenant = "kv"
	m.AddFlow(kv)
	dfs := dfsSpec(2)
	dfs.Tenant = "bulk"
	dfs.BurstOn = 200 * sim.Microsecond
	dfs.BurstOff = 200 * sim.Microsecond
	m.AddFlow(dfs)

	for step := 0; step < 50; step++ {
		m.Run(m.Eng.Now() + 100*sim.Microsecond)
		if err := dp.AuditWindows(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		var sum int64
		for pi := 0; pi < m.LLC.Partitions(); pi++ {
			if w, c := dp.Window(pi), dp.WindowCap(pi); w < 1 || w > c {
				t.Fatalf("step %d: partition %d window %d outside [1,%d]", step, pi, w, c)
			}
			sum += m.LLC.PartOccupancy(pi)
		}
		if sum != m.LLC.Occupancy() {
			t.Fatalf("step %d: partition occupancies sum to %d, machine total %d", step, sum, m.LLC.Occupancy())
		}
	}
	if m.Delivered.Packets == 0 {
		t.Fatal("no packets delivered")
	}
}

// TestRecyclingKeepsResidency is the end-to-end recycling property: with
// offered load the admission window can hold, every consumed buffer was
// recycled before eviction, so the run finishes with zero LLC misses —
// the cache-resident rx path RDCA promises.
func TestRecyclingKeepsResidency(t *testing.T) {
	m := iosys.NewMachine(iosys.DefaultConfig(), rdca.New(rdca.Options{}))
	kv := kvSpec(1)
	kv.InitialRate = 4e9 / 8
	kv.FixedRate = true
	m.AddFlow(kv)
	dfs := dfsSpec(2)
	dfs.InitialRate = 20e9 / 8
	dfs.FixedRate = true
	m.AddFlow(dfs)
	m.Run(5 * sim.Millisecond)
	if m.Delivered.Packets == 0 {
		t.Fatal("no packets delivered")
	}
	if m.LLC.Misses != 0 {
		t.Fatalf("windowed load took %d LLC misses, want 0 (recycled buffers must not age out)", m.LLC.Misses)
	}
}

// TestFlowRemovedDrainsParkedPackets pins the fault-episode interaction
// DESIGN.md documents: tearing a flow down mid-window (a host crash, a
// fleet migration) drains its parked arrivals as drops and leaves no
// stale entries behind for the auditor to find.
func TestFlowRemovedDrainsParkedPackets(t *testing.T) {
	dp := rdca.New(rdca.Options{FixedWindow: 4}) // tiny window: arrivals park immediately
	m := iosys.NewMachine(iosys.DefaultConfig(), dp)
	m.AddFlow(dfsSpec(1))
	m.Run(500 * sim.Microsecond)
	if dp.Pending(0) == 0 {
		t.Fatal("expected parked arrivals behind the 4-buffer window")
	}
	m.RemoveFlow(1)
	if got := dp.Pending(0); got != 0 {
		t.Fatalf("%d packets still parked after flow removal", got)
	}
	if err := dp.AuditWindows(); err != nil {
		t.Fatal(err)
	}
	if m.Flows[1] != nil {
		t.Fatal("flow still registered after removal")
	}
	m.Run(m.Eng.Now() + 500*sim.Microsecond) // in-flight admissions drain quietly
	if err := dp.AuditWindows(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerReactsToCachePressure squeezes the DDIO region below
// what even the minWindow floor of in-flight buffers occupies
// (8 × 2 KB in an 8 KB partition), so residency is unholdable: the
// eviction sink must see tagged buffers pushed out, the imminence
// probe must see survivors crowding the LRU tail, and both shrink
// paths plus the saturation-grow probe must fire. This is the proof
// the controller's signals are wired, not decorative.
func TestControllerReactsToCachePressure(t *testing.T) {
	cfg := iosys.DefaultConfig()
	cfg.LLCBytes = 8 << 10
	dp := rdca.New(rdca.Options{})
	m := iosys.NewMachine(cfg, dp)
	slow := iosys.FlowSpec{
		ID: 1, Kind: iosys.CPUInvolved, PktSize: 2048, MsgPkts: 1,
		Cost: iosys.CostModel{PerPacket: 2 * sim.Microsecond, ZeroCopy: true},
	}
	m.AddFlow(slow)
	m.Run(5 * sim.Millisecond)
	if dp.Grows == 0 {
		t.Fatal("controller never probed the window upward under saturation")
	}
	if dp.ImminentShrinks == 0 {
		t.Fatal("imminence probe never fired with in-flight buffers at the LRU tail")
	}
	if dp.EvictedInflight == 0 || dp.EvictShrinks == 0 {
		t.Fatalf("eviction sink unwired: evicted=%d shrinks=%d, want both > 0", dp.EvictedInflight, dp.EvictShrinks)
	}
	// An evicted in-flight buffer is re-read from DRAM at consume time:
	// every sink hit surfaces as an LLC miss, and only those do.
	if m.LLC.Misses != dp.EvictedInflight {
		t.Fatalf("LLC misses %d != evicted in-flight buffers %d", m.LLC.Misses, dp.EvictedInflight)
	}
	if err := dp.AuditWindows(); err != nil {
		t.Fatal(err)
	}
}

// TestFixedWindowPinsController checks the sweep knob: a FixedWindow
// datapath never resizes, whatever the pressure.
func TestFixedWindowPinsController(t *testing.T) {
	dp := rdca.New(rdca.Options{FixedWindow: 32})
	m := iosys.NewMachine(iosys.DefaultConfig(), dp)
	m.AddFlow(dfsSpec(1))
	m.Run(5 * sim.Millisecond)
	if got := dp.Window(0); got != 32 {
		t.Fatalf("fixed window drifted to %d, want 32", got)
	}
}
