package core

import (
	"ceio/internal/pkt"
)

// MPQConfig parameterises the Multiple-Priority-Queues strawman that §4.1
// considers and rejects in favour of lazy credit release. It follows
// PIAS: every flow starts at the highest priority and decays as its
// cumulative bytes cross the demotion thresholds, on the assumption that
// datacenter flows are long-tail distributed (most flows short, a few
// very large). Fast-path admission digs into the shared credit pool by
// priority: the highest priority may drain the pool completely, while
// each lower priority must leave a progressively larger reserve.
//
// The paper's criticism, which the MPQ ablation experiment reproduces:
// CPU-involved flows are not always short (continuous RPC streams, video,
// overlay traffic), so priority decay eventually demotes exactly the
// flows that need the fast path.
type MPQConfig struct {
	// DemotionBytes are the cumulative-bytes thresholds between priority
	// levels, ascending (PIAS-style). len(DemotionBytes)+1 levels total.
	DemotionBytes []uint64
	// ReserveFraction is the extra fraction of the credit pool each
	// priority level below the highest must leave untouched.
	ReserveFraction float64
}

// DefaultMPQConfig mirrors a small PIAS deployment: four priority levels
// with demotion at 100KB / 1MB / 10MB, each level reserving another 20%
// of the pool.
func DefaultMPQConfig() MPQConfig {
	return MPQConfig{
		DemotionBytes:   []uint64{100 << 10, 1 << 20, 10 << 20},
		ReserveFraction: 0.20,
	}
}

// mpqState augments a flow with PIAS priority tracking.
type mpqState struct {
	sentBytes uint64
	priority  int
}

// PriorityOf returns the PIAS priority (0 = highest) for a cumulative
// byte count (exported for tests and diagnostics).
func (cfg MPQConfig) PriorityOf(sent uint64) int {
	p := 0
	for _, th := range cfg.DemotionBytes {
		if sent >= th {
			p++
		}
	}
	return p
}

// ReserveFor returns the credit-pool floor priority p must respect.
func (cfg MPQConfig) ReserveFor(p, total int) int {
	r := int(float64(total) * cfg.ReserveFraction * float64(p))
	if r > total {
		r = total
	}
	return r
}

// admission is the fast-path admission policy behind the NIC-entrance
// decision. CEIO runs Algorithm 1's per-flow credit accounts
// (creditAdmission, ceio.go); Options.MPQ swaps in the strawman below.
// New selects one through newAdmission, and the datapath calls only
// these hooks.
type admission interface {
	// start arms the policy's periodic timers when the datapath attaches.
	start()
	// startFaults arms the timers fault injection needs.
	startFaults()
	// admit takes a fast-path credit for p, or reports false to divert p
	// to the slow path.
	admit(st *flowState, p *pkt.Packet) bool
	// unadmit returns the credit of an admitted packet that could not
	// take the fast path after all.
	unadmit(st *flowState)
	// delivered returns credits once the application has consumed p.
	delivered(st *flowState, p *pkt.Packet)
	// mayResume reports whether a drained slow-path flow may return to
	// the fast path.
	mayResume(st *flowState) bool
}

// newAdmission selects the admission policy from c's options.
func newAdmission(c *CEIO) admission {
	if c.opt.MPQ != nil {
		return &mpqAdmission{c: c, cfg: c.opt.MPQ}
	}
	return creditAdmission{c}
}

// mpqAdmission is the MPQ scheduler: a single shared credit pool with
// per-priority reserves and eager release. It arms no timers: the pool
// has no per-flow accounts to reallocate or reconcile.
type mpqAdmission struct {
	c     *CEIO
	cfg   *MPQConfig
	inUse int // shared credits consumed
}

func (a *mpqAdmission) start()       {}
func (a *mpqAdmission) startFaults() {}

func (a *mpqAdmission) admit(st *flowState, p *pkt.Packet) bool {
	if st.mpq == nil {
		st.mpq = &mpqState{}
	}
	ms := st.mpq
	ms.sentBytes += uint64(p.Size)
	ms.priority = a.cfg.PriorityOf(ms.sentBytes)
	total := a.c.ctrl.Total()
	if total-a.inUse <= a.cfg.ReserveFor(ms.priority, total) {
		return false
	}
	a.inUse++
	return true
}

func (a *mpqAdmission) unadmit(st *flowState) { a.releaseOne() }

// delivered returns one shared credit per fast-path packet (eager
// release: MPQ has no message-batch semantics).
func (a *mpqAdmission) delivered(st *flowState, p *pkt.Packet) {
	if p.Path == pkt.PathFast {
		a.releaseOne()
		a.c.maybeResumeFast(st)
	}
}

func (a *mpqAdmission) mayResume(st *flowState) bool {
	return a.c.ctrl.Total()-a.inUse != 0
}

func (a *mpqAdmission) releaseOne() {
	if a.inUse > 0 {
		a.inUse--
	}
}

// FlowPriority reports a flow's current PIAS priority under the MPQ
// scheduler (0 = highest; -1 when MPQ is disabled or the flow is
// unknown). Exposed for the ablation experiment and diagnostics.
func (c *CEIO) FlowPriority(id int) int {
	st := c.flows[id]
	if st == nil || st.mpq == nil {
		return -1
	}
	return st.mpq.priority
}
