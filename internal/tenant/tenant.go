// Package tenant adds multi-tenancy to the simulated DDIO region: a
// registry of tenants that own flows (via a tag on the flow spec), a
// CAT-style way-granular carve of the LLC's DDIO region into per-tenant
// LRU partitions plus an optional shared pool, and a dynamic
// repartitioning controller that reallocates ways at runtime
// (IOCA-style: shrink tenants that thrash without benefit, grow tenants
// whose misses are capacity-driven).
//
// The substitution argument mirrors the cache model's: real CAT assigns
// each tenant a waymask over the LLC's ways and the replacement policy
// evicts within the mask. Here a way is LLCBytes/ways bytes of capacity
// and each tenant's mask worth of ways is an independent LRU partition —
// same isolation boundary, same flush-on-shrink semantics when a way is
// reassigned, byte-accounted instead of line-accounted. Per-tenant
// partition occupancies always sum to the machine's total LLC occupancy
// (cache.LLC enforces this structurally).
package tenant

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"ceio/internal/cache"
	"ceio/internal/sim"
	"ceio/internal/stats"
)

// Mode selects how tenant partitions are managed.
type Mode int

const (
	// ModeShared keeps the LLC unpartitioned (one shared region) but
	// still attributes hits/misses and deliveries per tenant — the
	// noisy-neighbour baseline.
	ModeShared Mode = iota
	// ModeStatic carves the region by the specs' waymasks at setup and
	// never moves a way.
	ModeStatic
	// ModeDynamic starts from the specs' waymasks and lets the
	// repartitioning controller move ways at runtime.
	ModeDynamic
)

func (m Mode) String() string {
	switch m {
	case ModeStatic:
		return "static"
	case ModeDynamic:
		return "dynamic"
	default:
		return "shared"
	}
}

// ParseMode parses a CLI mode name.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "shared":
		return ModeShared, nil
	case "static":
		return ModeStatic, nil
	case "dynamic":
		return ModeDynamic, nil
	}
	return 0, fmt.Errorf("tenant: unknown mode %q (want shared|static|dynamic)", s)
}

// Spec declares one tenant and its way quota.
type Spec struct {
	// ID names the tenant; flows reference it via FlowSpec.Tenant.
	ID string
	// Ways is the tenant's initial way quota (its waymask width).
	Ways int
	// MinWays is the floor the dynamic controller never shrinks the
	// tenant below (defaults to 1).
	MinWays int
}

// Config declares the tenancy of a machine. A nil *Config on the machine
// config means no tenancy at all (zero overhead, byte-identical runs).
type Config struct {
	// Mode selects shared accounting, static partitions, or dynamic
	// repartitioning.
	Mode Mode
	// Specs lists the tenants. In partitioned modes their quotas must
	// fit in the region's ways; leftover ways form a shared pool that
	// untagged flows use and the dynamic controller draws on first.
	Specs []Spec
	// Period is the dynamic controller's scan interval on the simulation
	// clock (ModeDynamic only; zero selects DefaultPeriod).
	Period sim.Time
}

// DefaultPeriod is the dynamic controller's default scan interval.
const DefaultPeriod = 250 * sim.Microsecond

// ways is the number of ways the DDIO region is divided into, matching
// the testbed's 6-of-12-way DDIO carve: one simulated way per physical
// way given to DDIO.
const ways int = 6

// withDefaults returns c with a zero Period replaced by the default and
// per-spec floors applied.
func (c Config) withDefaults() Config {
	if c.Period == 0 {
		c.Period = DefaultPeriod
	}
	specs := make([]Spec, len(c.Specs))
	copy(specs, c.Specs)
	for i := range specs {
		if specs[i].MinWays == 0 {
			specs[i].MinWays = 1
		}
	}
	c.Specs = specs
	return c
}

// Validate reports a structurally invalid tenancy for an LLC of llcBytes
// with descriptive errors (surfaced through the simulator's error-path
// constructors rather than a panic deep in cache setup).
func (c Config) Validate(llcBytes int64) error {
	d := c.withDefaults()
	if len(d.Specs) == 0 {
		return fmt.Errorf("tenant: tenancy configured with no tenants")
	}
	if llcBytes > 0 && int64(ways) > llcBytes {
		return fmt.Errorf("tenant: %d ways cannot carve a %d-byte DDIO region", ways, llcBytes)
	}
	seen := make(map[string]bool, len(d.Specs))
	quota := 0
	for _, s := range d.Specs {
		if s.ID == "" {
			return fmt.Errorf("tenant: tenant with empty ID")
		}
		if seen[s.ID] {
			return fmt.Errorf("tenant: duplicate tenant ID %q", s.ID)
		}
		seen[s.ID] = true
		if s.Ways <= 0 {
			return fmt.Errorf("tenant: tenant %q has an empty waymask (%d ways)", s.ID, s.Ways)
		}
		if s.MinWays > s.Ways {
			return fmt.Errorf("tenant: tenant %q floor %d exceeds its %d-way quota", s.ID, s.MinWays, s.Ways)
		}
		quota += s.Ways
	}
	if quota > ways {
		wayBytes := int64(0)
		if llcBytes > 0 {
			wayBytes = llcBytes / int64(ways)
		}
		return fmt.Errorf("tenant: quotas total %d ways (%d bytes), exceeding the %d-way (%d-byte) DDIO region",
			quota, int64(quota)*wayBytes, ways, llcBytes)
	}
	return nil
}

// ParseSpecs parses a CLI tenant layout of the form "kv=2,bulk=3"
// (tenant ID = way quota).
func ParseSpecs(s string) ([]Spec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("tenant: empty tenant spec")
	}
	var specs []Spec
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("tenant: bad tenant spec %q (want name=ways)", part)
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("tenant: bad way count in %q", part)
		}
		specs = append(specs, Spec{ID: kv[0], Ways: w})
	}
	return specs, nil
}

// Tenant is the runtime state of one registered tenant.
type Tenant struct {
	ID      string
	Index   int // position in the registry (and packet stamp)
	Part    int // LLC partition index this tenant inserts into
	MinWays int

	// Ways and Mask are the tenant's current allocation (CAT waymask).
	// In shared mode both stay zero: every tenant uses partition 0.
	Ways int
	Mask uint64

	// Flows counts the tenant's live flows.
	Flows int

	// Measurement-window accounting (reset by Machine.ResetWindow).
	Hits, Misses uint64
	Delivered    stats.Meter

	// Scan-window accounting for the dynamic controller (reset each
	// scan, independent of the measurement window).
	winHits, winMisses uint64
}

// MissRate returns the tenant's measurement-window miss rate.
func (t *Tenant) MissRate() float64 { return stats.Ratio(t.Misses, t.Hits+t.Misses) }

// Registry owns the machine's tenants and their LLC partitions.
type Registry struct {
	cfg      Config
	llc      *cache.LLC
	tenants  []*Tenant
	byID     map[string]*Tenant
	wayBytes int64
	// sharedPart is the partition untagged flows use: the shared pool in
	// partitioned modes, partition 0 in shared mode.
	sharedPart int
	sharedWays int
	sharedMask uint64
	// evictSink, if set, receives buffers flushed by way movement so the
	// machine can charge their DRAM writebacks.
	evictSink func([]cache.Evicted)

	// WaysMoved counts way reassignments (dynamic mode).
	WaysMoved uint64
}

// NewRegistry validates cfg against the machine's LLC and carves its
// partitions: tenants in spec order take their quota of ways left to
// right; leftover ways — plus the byte remainder of the way division —
// form the shared pool partition (index len(tenants)).
func NewRegistry(cfg Config, llc *cache.LLC) (*Registry, error) {
	if err := cfg.Validate(llc.Capacity()); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	r := &Registry{
		cfg:  cfg,
		llc:  llc,
		byID: make(map[string]*Tenant, len(cfg.Specs)),
	}
	r.wayBytes = llc.Capacity() / int64(ways)
	for i, s := range cfg.Specs {
		t := &Tenant{ID: s.ID, Index: i, MinWays: s.MinWays}
		r.tenants = append(r.tenants, t)
		r.byID[s.ID] = t
	}
	if cfg.Mode == ModeShared {
		// One shared partition (the LLC's default); tenants share it and
		// only the accounting is per-tenant.
		r.sharedPart = 0
		return r, nil
	}
	caps := make([]int64, 0, len(r.tenants)+1)
	bit := 0
	used := 0
	for i, t := range r.tenants {
		t.Part = i
		t.Ways = cfg.Specs[i].Ways
		t.Mask = ((uint64(1) << t.Ways) - 1) << bit
		bit += t.Ways
		used += t.Ways
		caps = append(caps, int64(t.Ways)*r.wayBytes)
	}
	r.sharedPart = len(r.tenants)
	r.sharedWays = ways - used
	r.sharedMask = ((uint64(1) << r.sharedWays) - 1) << bit
	// The way-division remainder stays in the shared pool so partition
	// capacities sum exactly to the LLC capacity.
	remainder := llc.Capacity() - int64(ways)*r.wayBytes
	caps = append(caps, int64(r.sharedWays)*r.wayBytes+remainder)
	if err := llc.Partition(caps); err != nil {
		return nil, err
	}
	return r, nil
}

// Mode returns the registry's management mode.
func (r *Registry) Mode() Mode { return r.cfg.Mode }

// Partitioned reports whether tenants have isolated LLC partitions.
func (r *Registry) Partitioned() bool { return r.cfg.Mode != ModeShared }

// Tenants returns the tenants in registry order (shared slice; callers
// must not mutate).
func (r *Registry) Tenants() []*Tenant { return r.tenants }

// Lookup finds a tenant by ID.
func (r *Registry) Lookup(id string) (*Tenant, bool) {
	t, ok := r.byID[id]
	return t, ok
}

// WayBytes returns the byte size of one way.
func (r *Registry) WayBytes() int64 { return r.wayBytes }

// SharedWays returns the ways currently in the shared pool.
func (r *Registry) SharedWays() int { return r.sharedWays }

// SharedPart returns the partition index untagged flows insert into.
func (r *Registry) SharedPart() int { return r.sharedPart }

// ForFlow resolves a flow's tenant tag to (tenant index, partition).
// An empty tag places the flow in the shared pool with no tenant
// attribution (index -1); an unknown tag is an error.
func (r *Registry) ForFlow(tag string) (index, part int, err error) {
	if tag == "" {
		return -1, r.sharedPart, nil
	}
	t, ok := r.byID[tag]
	if !ok {
		known := make([]string, 0, len(r.tenants))
		for _, tn := range r.tenants {
			known = append(known, tn.ID)
		}
		return 0, 0, fmt.Errorf("tenant: unknown tenant %q (registered: %s)", tag, strings.Join(known, ", "))
	}
	return t.Index, t.Part, nil
}

// FlowAdded / FlowRemoved track a tenant's live-flow count.
func (r *Registry) FlowAdded(index int) {
	if index >= 0 {
		r.tenants[index].Flows++
	}
}

// FlowRemoved is the teardown counterpart of FlowAdded.
func (r *Registry) FlowRemoved(index int) {
	if index >= 0 {
		r.tenants[index].Flows--
	}
}

// Account attributes one LLC access to a tenant, in both the measurement
// window and the controller's scan window.
func (r *Registry) Account(index int, hit bool) {
	if index < 0 {
		return
	}
	t := r.tenants[index]
	if hit {
		t.Hits++
		t.winHits++
	} else {
		t.Misses++
		t.winMisses++
	}
}

// RecordDelivery attributes one delivered packet to a tenant.
func (r *Registry) RecordDelivery(index, bytes int) {
	if index >= 0 {
		r.tenants[index].Delivered.Record(bytes)
	}
}

// ResetWindow restarts the per-tenant measurement counters (the
// controller's scan window is untouched — it runs on its own clock).
func (r *Registry) ResetWindow(now sim.Time) {
	for _, t := range r.tenants {
		t.Hits, t.Misses = 0, 0
		t.Delivered.Reset(now)
	}
}

// resetScanWindow zeroes the controller's per-scan counters.
func (r *Registry) resetScanWindow() {
	for _, t := range r.tenants {
		t.winHits, t.winMisses = 0, 0
	}
}

// Credits returns the tenant's partition budget in I/O buffers — the
// per-tenant analogue of the paper's Eq. 1 (C_total = Size_LLC /
// Size_buf) that CEIO's credit gate consults instead of the global DDIO
// capacity. In shared mode the budget is the whole region.
func (r *Registry) Credits(index, bufSize int) int {
	if bufSize <= 0 {
		return 0
	}
	if !r.Partitioned() {
		return int(r.llc.Capacity() / int64(bufSize))
	}
	part := r.sharedPart // untagged flows budget against the shared pool
	if index >= 0 {
		part = r.tenants[index].Part
	}
	return int(r.llc.PartCapacity(part) / int64(bufSize))
}

// SetEvictSink registers the callback receiving buffers flushed when a
// way moves between partitions (the machine charges their writebacks).
func (r *Registry) SetEvictSink(fn func([]cache.Evicted)) { r.evictSink = fn }

// moveWay reassigns one way from a donor to a grantee, flushing the
// lines the donor can no longer hold. Either side may be the shared pool
// (index -1). It reports whether a way actually moved.
func (r *Registry) moveWay(from, to int) bool {
	var fromPart, toPart int
	var bit int
	switch {
	case from < 0:
		if r.sharedWays <= 0 {
			return false
		}
		fromPart = r.sharedPart
		bit = bits.Len64(r.sharedMask) - 1
		r.sharedMask &^= uint64(1) << bit
		r.sharedWays--
	default:
		d := r.tenants[from]
		if d.Ways <= d.MinWays {
			return false
		}
		fromPart = d.Part
		bit = bits.Len64(d.Mask) - 1
		d.Mask &^= uint64(1) << bit
		d.Ways--
	}
	if to < 0 {
		toPart = r.sharedPart
		r.sharedMask |= uint64(1) << bit
		r.sharedWays++
	} else {
		g := r.tenants[to]
		toPart = g.Part
		g.Mask |= uint64(1) << bit
		g.Ways++
	}
	evicted := r.llc.MoveCapacity(fromPart, toPart, r.wayBytes)
	if r.evictSink != nil && len(evicted) > 0 {
		r.evictSink(evicted)
	}
	r.WaysMoved++
	return true
}

// Audit verifies the tenancy invariants: waymasks are pairwise disjoint
// and cover exactly the region's ways, each tenant's partition capacity matches
// its mask, no tenant sits below its floor, and partition occupancies
// sum to the LLC's global occupancy.
func (r *Registry) Audit() error {
	if !r.Partitioned() {
		return nil
	}
	var union uint64
	totalWays := 0
	for _, t := range r.tenants {
		if bits.OnesCount64(t.Mask) != t.Ways {
			return fmt.Errorf("tenant %q mask %#x has %d bits, records %d ways", t.ID, t.Mask, bits.OnesCount64(t.Mask), t.Ways)
		}
		if t.Ways < t.MinWays {
			return fmt.Errorf("tenant %q at %d ways, below its floor %d", t.ID, t.Ways, t.MinWays)
		}
		if union&t.Mask != 0 {
			return fmt.Errorf("tenant %q mask %#x overlaps another tenant's", t.ID, t.Mask)
		}
		union |= t.Mask
		totalWays += t.Ways
		if want := int64(t.Ways) * r.wayBytes; r.llc.PartCapacity(t.Part) != want {
			return fmt.Errorf("tenant %q partition holds %d bytes, mask implies %d", t.ID, r.llc.PartCapacity(t.Part), want)
		}
	}
	if bits.OnesCount64(r.sharedMask) != r.sharedWays {
		return fmt.Errorf("shared pool mask %#x has %d bits, records %d ways", r.sharedMask, bits.OnesCount64(r.sharedMask), r.sharedWays)
	}
	if union&r.sharedMask != 0 {
		return fmt.Errorf("shared pool mask %#x overlaps a tenant's", r.sharedMask)
	}
	if totalWays+r.sharedWays != ways {
		return fmt.Errorf("ways not conserved: tenants %d + shared %d != %d", totalWays, r.sharedWays, ways)
	}
	var occ int64
	for i := 0; i < r.llc.Partitions(); i++ {
		occ += r.llc.PartOccupancy(i)
	}
	if occ != r.llc.Occupancy() {
		return fmt.Errorf("partition occupancies sum to %d, LLC reports %d", occ, r.llc.Occupancy())
	}
	return nil
}

// String renders the current allocation, e.g. "kv=3 bulk=2 shared=1".
func (r *Registry) String() string {
	var b strings.Builder
	for i, t := range r.tenants {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", t.ID, t.Ways)
	}
	if r.Partitioned() {
		fmt.Fprintf(&b, " shared=%d", r.sharedWays)
	}
	return b.String()
}

// sortNeedy orders capacity-hungry tenants most-thrashing first, ties
// broken by registry order for determinism.
func sortNeedy(needy []tenantView) {
	sort.SliceStable(needy, func(i, j int) bool {
		if needy[i].rate != needy[j].rate {
			return needy[i].rate > needy[j].rate
		}
		return needy[i].t.Index < needy[j].t.Index
	})
}
