package tenant

import (
	"strings"
	"testing"

	"ceio/internal/cache"
	"ceio/internal/sim"
)

func dynConfig(specs ...Spec) Config {
	return Config{Mode: ModeDynamic, Specs: specs}
}

func TestConfigValidate(t *testing.T) {
	llc := int64(6 << 20)
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error, "" = valid
	}{
		{"valid", dynConfig(Spec{ID: "kv", Ways: 2}, Spec{ID: "bulk", Ways: 3}), ""},
		{"no tenants", Config{Mode: ModeStatic}, "no tenants"},
		{"quota overflow", dynConfig(Spec{ID: "kv", Ways: 4}, Spec{ID: "bulk", Ways: 4}), "exceeding"},
		{"duplicate", dynConfig(Spec{ID: "kv", Ways: 1}, Spec{ID: "kv", Ways: 1}), "duplicate"},
		{"empty mask", dynConfig(Spec{ID: "kv", Ways: 0}), "empty waymask"},
		{"empty id", dynConfig(Spec{ID: "", Ways: 1}), "empty ID"},
		{"bad floor", dynConfig(Spec{ID: "kv", Ways: 2, MinWays: 3}), "floor"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate(llc)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs("kv=2, bulk=3")
	if err != nil || len(specs) != 2 || specs[0] != (Spec{ID: "kv", Ways: 2}) || specs[1] != (Spec{ID: "bulk", Ways: 3}) {
		t.Fatalf("got %v, %v", specs, err)
	}
	for _, bad := range []string{"", "kv", "kv=0", "kv=x", "=2"} {
		if _, err := ParseSpecs(bad); err == nil {
			t.Errorf("ParseSpecs(%q) accepted", bad)
		}
	}
}

// TestRegistryCarve pins the initial partition geometry: tenants take
// their quotas left to right, the shared pool gets the leftover ways
// plus the way-division byte remainder, and capacities sum to the LLC.
func TestRegistryCarve(t *testing.T) {
	llc := cache.NewLLC(6<<20 + 100) // deliberately not way-divisible
	r, err := NewRegistry(dynConfig(Spec{ID: "kv", Ways: 2}, Spec{ID: "bulk", Ways: 3}), llc)
	if err != nil {
		t.Fatal(err)
	}
	if llc.Partitions() != 3 {
		t.Fatalf("want 3 partitions, got %d", llc.Partitions())
	}
	kv, _ := r.Lookup("kv")
	bulk, _ := r.Lookup("bulk")
	if kv.Mask != 0b000011 || bulk.Mask != 0b011100 || r.sharedMask != 0b100000 {
		t.Fatalf("masks wrong: kv=%#b bulk=%#b shared=%#b", kv.Mask, bulk.Mask, r.sharedMask)
	}
	wb := r.WayBytes()
	if llc.PartCapacity(kv.Part) != 2*wb || llc.PartCapacity(bulk.Part) != 3*wb {
		t.Fatal("tenant partition capacities do not match quotas")
	}
	var sum int64
	for i := 0; i < llc.Partitions(); i++ {
		sum += llc.PartCapacity(i)
	}
	if sum != llc.Capacity() {
		t.Fatalf("capacities sum to %d, LLC has %d (remainder lost)", sum, llc.Capacity())
	}
	if err := r.Audit(); err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "kv=2 bulk=3 shared=1" {
		t.Fatalf("String() = %q", got)
	}
}

func TestForFlow(t *testing.T) {
	llc := cache.NewLLC(6 << 20)
	r, err := NewRegistry(dynConfig(Spec{ID: "kv", Ways: 2}), llc)
	if err != nil {
		t.Fatal(err)
	}
	if idx, part, err := r.ForFlow("kv"); err != nil || idx != 0 || part != 0 {
		t.Fatalf("kv resolved to (%d,%d,%v)", idx, part, err)
	}
	if idx, part, err := r.ForFlow(""); err != nil || idx != -1 || part != r.SharedPart() {
		t.Fatalf("untagged resolved to (%d,%d,%v)", idx, part, err)
	}
	if _, _, err := r.ForFlow("nope"); err == nil || !strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("unknown tag: %v", err)
	}
}

// TestSharedModeNoPartitions checks ModeShared leaves the LLC as one
// region and still attributes accesses per tenant.
func TestSharedModeNoPartitions(t *testing.T) {
	llc := cache.NewLLC(6 << 20)
	r, err := NewRegistry(Config{Mode: ModeShared, Specs: []Spec{{ID: "kv", Ways: 1}, {ID: "bulk", Ways: 1}}}, llc)
	if err != nil {
		t.Fatal(err)
	}
	if llc.Partitions() != 1 || r.Partitioned() {
		t.Fatal("shared mode must not carve the LLC")
	}
	r.Account(0, true)
	r.Account(1, false)
	kv, _ := r.Lookup("kv")
	bulk, _ := r.Lookup("bulk")
	if kv.Hits != 1 || bulk.Misses != 1 {
		t.Fatal("per-tenant attribution broken in shared mode")
	}
	if err := r.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerGrowsCapacityHungryTenant drives a synthetic
// capacity-driven tenant: kv's working set is 5 ways, so its miss rate
// falls as it grows (each trial grant shows measurable benefit) while
// bulk idles. The controller must move ways to kv — from the shared
// pool first, then from bulk down to its floor — until kv stops
// missing.
func TestControllerGrowsCapacityHungryTenant(t *testing.T) {
	llc := cache.NewLLC(6 << 20)
	refs := bufRefs{}
	r, err := NewRegistry(dynConfig(Spec{ID: "kv", Ways: 1}, Spec{ID: "bulk", Ways: 4}), llc)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(r)
	kv, _ := r.Lookup("kv")
	bulk, _ := r.Lookup("bulk")

	fill := func(tn *Tenant) {
		// Keep the partition >= occupancyHigh full.
		id := cache.BufID(1000 * (tn.Index + 1))
		for llc.PartOccupancy(tn.Part) < llc.PartCapacity(tn.Part) {
			id++
			refs.insertIn(llc, tn.Part, id, 64<<10)
		}
	}
	// One scan window: kv's 5-way working set means (5 - ways)/5 of its
	// accesses miss — growth buys a 0.2 rate improvement per way, well
	// over growBenefit, so the saturation latch never fires.
	scan := func() {
		fill(kv)
		misses := 20 * (5 - kv.Ways)
		for i := 0; i < misses; i++ {
			r.Account(kv.Index, false)
		}
		for i := 0; i < 100-misses; i++ {
			r.Account(kv.Index, true)
		}
		// bulk stays idle (< minSamples) => donor.
		ctrl.ScanOnce()
	}
	for i := 0; i < 2; i++ {
		scan()
	}
	if kv.Ways <= 1 {
		t.Fatalf("controller never grew the capacity-hungry tenant: %s", r)
	}
	if r.SharedWays() != 0 {
		t.Fatalf("shared pool should donate first: %s", r)
	}
	// Keep going: bulk must be drained to its floor, never below, and kv
	// must stop growing once its working set fits.
	for i := 0; i < 10; i++ {
		scan()
	}
	if bulk.Ways != bulk.MinWays {
		t.Fatalf("idle donor not drained to floor: %s", r)
	}
	if kv.Ways != 5 {
		t.Fatalf("kv should hold exactly its working set: %s", r)
	}
	if ctrl.Saturations != 0 {
		t.Fatalf("capacity-driven growth misread as saturation (%d latches)", ctrl.Saturations)
	}
	if err := r.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerSaturationLatch drives the "thrash without benefit"
// case: both tenants miss at 100% regardless of allocation (streaming).
// After a trial grant buys no improvement the grown tenant must latch
// saturated and stop receiving ways, and the latch must clear once its
// miss rate recovers.
func TestControllerSaturationLatch(t *testing.T) {
	llc := cache.NewLLC(6 << 20)
	refs := bufRefs{}
	r, err := NewRegistry(dynConfig(Spec{ID: "kv", Ways: 2}, Spec{ID: "bulk", Ways: 3}), llc)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(r)
	bulk, _ := r.Lookup("bulk")

	fill := func(part int, base cache.BufID) {
		id := base
		for llc.PartOccupancy(part) < llc.PartCapacity(part) {
			id++
			refs.insertIn(llc, part, id, 64<<10)
		}
	}
	thrash := func() {
		fill(0, 1000)
		fill(1, 2000)
		for i := 0; i < 100; i++ {
			r.Account(0, false)
			r.Account(1, false)
		}
	}
	// Scan 1: both needy; bulk (same rate, but sorted by rate then index —
	// equal rates keep registry order, kv first) — the shared pool's single
	// way goes to kv; bulk gets nothing this round.
	thrash()
	ctrl.ScanOnce()
	// Scan 2: kv shows no improvement => latches saturated and becomes a
	// donor; bulk, equally hopeless, gets a trial way, fails, latches too.
	for i := 0; i < 6; i++ {
		thrash()
		ctrl.ScanOnce()
	}
	if !ctrl.Saturated(0) || !ctrl.Saturated(1) {
		t.Fatalf("hopeless tenants not latched saturated (kv=%v bulk=%v) after %d scans",
			ctrl.Saturated(0), ctrl.Saturated(1), ctrl.Scans)
	}
	if ctrl.Saturations < 2 {
		t.Fatalf("want >= 2 saturation transitions, got %d", ctrl.Saturations)
	}
	// Recovery: bulk starts hitting; its latch must clear.
	fill(bulk.Part, 3000)
	for i := 0; i < 100; i++ {
		r.Account(bulk.Index, true)
	}
	ctrl.ScanOnce()
	if ctrl.Saturated(bulk.Index) {
		t.Fatal("saturation latch did not clear after recovery")
	}
	if err := r.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerOnEngineClock checks Start/Stop wire the scan onto the
// sim engine and that non-dynamic modes arm nothing.
func TestControllerOnEngineClock(t *testing.T) {
	llc := cache.NewLLC(6 << 20)
	cfg := dynConfig(Spec{ID: "kv", Ways: 2}, Spec{ID: "bulk", Ways: 3})
	cfg.Period = 100 * sim.Microsecond
	r, err := NewRegistry(cfg, llc)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(r)
	eng := sim.NewEngine(1)
	ctrl.Start(eng)
	eng.RunUntil(1050 * sim.Microsecond)
	if ctrl.Scans != 10 {
		t.Fatalf("want 10 scans in 1.05ms at 100µs, got %d", ctrl.Scans)
	}
	ctrl.Stop()
	eng.RunUntil(2 * sim.Millisecond)
	if ctrl.Scans != 10 {
		t.Fatal("Stop did not cancel the scan timer")
	}

	// Static mode must not arm a timer.
	llc2 := cache.NewLLC(6 << 20)
	scfg := cfg
	scfg.Mode = ModeStatic
	r2, err := NewRegistry(scfg, llc2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl2 := NewController(r2)
	eng2 := sim.NewEngine(1)
	ctrl2.Start(eng2)
	eng2.RunUntil(sim.Millisecond)
	if ctrl2.Scans != 0 {
		t.Fatal("static mode armed the repartitioning timer")
	}
}

// TestMoveWayEvictSink checks flushed buffers from way movement reach
// the registered sink exactly once.
func TestMoveWayEvictSink(t *testing.T) {
	llc := cache.NewLLC(6 << 10)
	refs := bufRefs{}
	r, err := NewRegistry(dynConfig(Spec{ID: "kv", Ways: 5, MinWays: 1}, Spec{ID: "bulk", Ways: 1}), llc)
	if err != nil {
		t.Fatal(err)
	}
	var flushed []cache.BufID
	r.SetEvictSink(func(evs []cache.Evicted) {
		for _, e := range evs {
			flushed = append(flushed, e.ID)
		}
	})
	kv, _ := r.Lookup("kv")
	// Fill kv's partition completely, then take a way from it.
	wb := r.WayBytes()
	for i := int64(0); i < 5; i++ {
		refs.insertIn(llc, kv.Part, cache.BufID(i+1), wb)
	}
	if !r.moveWay(kv.Index, 1) {
		t.Fatal("moveWay refused a legal move")
	}
	if len(flushed) != 1 || flushed[0] != 1 {
		t.Fatalf("want LRU buffer 1 flushed to sink, got %v", flushed)
	}
	if kv.Ways != 4 || r.WaysMoved != 1 {
		t.Fatalf("bookkeeping wrong after move: %s moved=%d", r, r.WaysMoved)
	}
	// Returning the way leaves bulk at its floor; a further donation
	// from it must be refused.
	bulk, _ := r.Lookup("bulk")
	if !r.moveWay(bulk.Index, kv.Index) {
		t.Fatal("moveWay refused a legal return move")
	}
	if r.moveWay(bulk.Index, kv.Index) {
		t.Fatal("moveWay shrank a tenant below its floor")
	}
	if err := r.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestCredits(t *testing.T) {
	llc := cache.NewLLC(6 << 20)
	r, err := NewRegistry(dynConfig(Spec{ID: "kv", Ways: 2}, Spec{ID: "bulk", Ways: 3}), llc)
	if err != nil {
		t.Fatal(err)
	}
	wb := r.WayBytes()
	if got := r.Credits(0, 2048); got != int(2*wb/2048) {
		t.Fatalf("kv credits = %d, want partition capacity / buf size", got)
	}
	// Untagged flows budget against the shared pool on a partitioned
	// machine — they may not evict tenants' lines either.
	if got := r.Credits(-1, 2048); got != int(wb/2048) {
		t.Fatalf("untagged credits = %d, want shared pool / buf size", got)
	}
}

// bufRefs keeps the LLC handle of each buffer a test inserted, keyed by
// buffer ID, so tests can address the ref-based LLC by ID.
type bufRefs map[cache.BufID]*cache.Ref

func (b bufRefs) ref(id cache.BufID) *cache.Ref {
	r := b[id]
	if r == nil {
		r = new(cache.Ref)
		b[id] = r
	}
	return r
}

func (b bufRefs) insertIn(llc *cache.LLC, part int, id cache.BufID, size int64) []cache.Evicted {
	return llc.InsertIOSized(part, b.ref(id), id, size, size)
}

func (b bufRefs) consumeIn(llc *cache.LLC, part int, id cache.BufID) bool {
	return llc.ConsumeIn(part, *b.ref(id))
}
