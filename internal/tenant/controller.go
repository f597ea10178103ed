package tenant

import (
	"ceio/internal/sim"
)

// Controller is the IOCA-style dynamic repartitioner. Every Period it
// samples each tenant's scan-window miss rate and partition occupancy
// and moves ways — one per needy tenant per scan — from tenants that
// thrash without benefit (or sit idle) toward tenants whose misses are
// capacity-driven. The discriminator is trial growth with measured
// benefit: a grown tenant that does not improve its miss rate by
// growBenefit before the next trusted sample is latched saturated (its
// working set exceeds any allocation it could get — a streaming tenant)
// and turns from grantee into donor until its miss rate actually drops.
//
// All decisions run on the simulation clock with stable, index-ordered
// iteration, so runs are deterministic and byte-identical across
// process-level parallelism.
type Controller struct {
	reg    *Registry
	states []growState
	cancel func()

	// Scans counts completed scan rounds.
	Scans uint64
	// Saturations counts saturated-latch transitions (diagnostics).
	Saturations uint64
}

// growState is the controller's per-tenant memory between scans.
type growState struct {
	// pendingGrow marks that the tenant was granted a way and the next
	// trusted sample must show growBenefit improvement over rateAtGrow.
	pendingGrow bool
	rateAtGrow  float64
	// saturated latches a tenant whose trial growth bought nothing;
	// cleared when its miss rate drops to the shrink threshold.
	saturated bool
}

// tenantView is one tenant's sampled state during a scan.
type tenantView struct {
	t       *Tenant
	rate    float64
	samples uint64
	trusted bool // samples >= minSamples
	occ     int64
	cap     int64
}

// NewController builds a controller over reg. It only makes sense for
// ModeDynamic registries; Start on any other mode is a no-op.
func NewController(reg *Registry) *Controller {
	return &Controller{reg: reg, states: make([]growState, len(reg.tenants))}
}

// Start arms the periodic scan on eng. Idempotent via Stop.
func (c *Controller) Start(eng *sim.Engine) {
	if c.reg.cfg.Mode != ModeDynamic {
		return
	}
	p := c.reg.cfg.Period
	c.cancel = eng.Every(p, p, func() { c.ScanOnce() })
}

// Stop cancels the periodic scan.
func (c *Controller) Stop() {
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
}

// Repartitioning thresholds.
const (
	// growMissRate is the per-window miss rate at (or above) which a
	// tenant with a full partition is considered capacity-hungry.
	growMissRate float64 = 0.05
	// shrinkMissRate is the miss rate at (or below) which a tenant is a
	// safe donor.
	shrinkMissRate float64 = 0.01
	// occupancyHigh is the occupancy fraction above which misses are
	// attributed to capacity rather than cold buffers.
	occupancyHigh float64 = 0.85
	// growBenefit is the absolute miss-rate improvement a grown tenant
	// must show by the next scan; otherwise it is marked saturated
	// (thrashing without benefit) and becomes a donor.
	growBenefit float64 = 0.02
	// minSamples is the minimum accesses in a scan window before its
	// miss rate is trusted.
	minSamples uint64 = 32
)

// ScanOnce runs one repartitioning round: sample, update saturation
// latches, pick needy tenants and donors, move at most one way per needy
// tenant, then reset the scan window. Exported for tests and the fuzz
// target; the periodic timer calls exactly this.
func (c *Controller) ScanOnce() {
	r := c.reg
	if r.cfg.Mode != ModeDynamic {
		return
	}
	views := make([]tenantView, len(r.tenants))
	for i, t := range r.tenants {
		samples := t.winHits + t.winMisses
		v := tenantView{
			t:       t,
			samples: samples,
			trusted: samples >= minSamples,
			occ:     r.llc.PartOccupancy(t.Part),
			cap:     r.llc.PartCapacity(t.Part),
		}
		if samples > 0 {
			v.rate = float64(t.winMisses) / float64(samples)
		}
		views[i] = v
	}

	// Settle pending trial growths and saturation latches before
	// classifying — a tenant's verdict this scan uses this scan's sample.
	for i := range views {
		v := &views[i]
		st := &c.states[i]
		if st.pendingGrow && v.trusted {
			if st.rateAtGrow-v.rate < growBenefit {
				if !st.saturated {
					st.saturated = true
					c.Saturations++
				}
			}
			st.pendingGrow = false
		}
		if st.saturated && v.trusted && v.rate <= shrinkMissRate {
			st.saturated = false
		}
	}

	// Classify. Needy tenants miss because their partition is full;
	// donors are idle, comfortably hitting, saturated, or not even
	// filling what they have.
	var needy []tenantView
	donor := make([]bool, len(views))
	for i := range views {
		v := &views[i]
		st := &c.states[i]
		full := float64(v.occ) >= occupancyHigh*float64(v.cap)
		switch {
		case !st.saturated && v.trusted && v.rate >= growMissRate && full:
			needy = append(needy, *v)
		case v.t.Ways > v.t.MinWays &&
			(!v.trusted || v.rate <= shrinkMissRate || st.saturated || !full):
			donor[i] = true
		}
	}
	sortNeedy(needy)

	for _, n := range needy {
		moved := false
		if r.sharedWays > 0 {
			moved = r.moveWay(-1, n.t.Index)
		}
		if !moved {
			// Richest eligible donor; ties break toward the lowest
			// registry index for determinism.
			best := -1
			for i := range views {
				if !donor[i] || views[i].t.Index == n.t.Index {
					continue
				}
				if views[i].t.Ways <= views[i].t.MinWays {
					continue
				}
				if best < 0 || views[i].t.Ways > views[best].t.Ways {
					best = i
				}
			}
			if best >= 0 {
				moved = r.moveWay(views[best].t.Index, n.t.Index)
			}
		}
		if moved {
			st := &c.states[n.t.Index]
			st.pendingGrow = true
			st.rateAtGrow = n.rate
		}
	}

	r.resetScanWindow()
	c.Scans++
}

// Saturated reports whether tenant index is currently latched saturated
// (exported for tests and experiment diagnostics).
func (c *Controller) Saturated(index int) bool {
	if index < 0 || index >= len(c.states) {
		return false
	}
	return c.states[index].saturated
}
