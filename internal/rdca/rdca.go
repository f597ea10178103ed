// Package rdca implements the receiver-driven cache-resident datapath
// the RDCA line of work ("From RDMA to RDCA: Toward a Dataplane with
// Guaranteed Cache Residency", see PAPERS.md) proposes as an alternative
// to CEIO's credit-gated DDIO region: instead of policing how fast the
// NIC may write into the LLC, keep the *entire* receive path
// cache-resident by bounding the in-flight window to what the flow's LLC
// partition can hold and recycling every buffer back to the NIC the
// moment its payload is consumed — before the line can age out of the
// DDIO ways (§2.2 of the CEIO paper describes the eviction mechanism
// both designs fight).
//
// Three mechanisms cooperate:
//
//   - A per-partition in-flight window, sized to the partition's Eq. 1
//     budget (partition bytes / I/O buffer size — the same derivation
//     tenant.Registry.Credits feeds CEIO's per-tenant gate) scaled by a
//     residency target. Arrivals beyond the window park in a FIFO and
//     are admitted as deliveries free slots; RDCA has no elastic on-NIC
//     buffer, so a parked backlog beyond the rx ring bound is dropped
//     and the sender's CCA backs off.
//   - An eviction-imminence signal: the window controller polls
//     cache.LLC.ImminentIn for tagged in-flight rx buffers within an
//     LRU-distance threshold of the eviction tail, and shrinks the
//     window *before* residency is lost. Actual evictions of in-flight
//     buffers (surfaced through the machine's eviction sink via
//     Machine.OnIOEvict) trigger a stronger multiplicative shrink.
//   - Aggressive buffer recycling: CPU-involved reads already retire
//     their line at consume; for CPU-bypass flows the delivered line is
//     explicitly demoted (CLDEMOTE-style) at delivery instead of
//     lingering dirty until capacity pressure evicts it.
//
// The receiver-side window check costs a few nanoseconds per packet
// where CEIO's on-NIC credit controller pays ~150ns, so RDCA wins
// latency-bound workloads; without CEIO's elastic slow path it collapses
// under bursty bypass writes. The `rdca` experiment measures both sides.
package rdca

import (
	"fmt"

	"ceio/internal/cache"
	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/ring"
	"ceio/internal/sim"
)

// Options configure the RDCA datapath. The zero value is the
// receiver-driven default.
type Options struct {
	// FixedWindow, when positive, pins every partition's window (the
	// rdca experiment's window sweep); the controller still tracks
	// eviction and imminence counters but never resizes.
	FixedWindow int
}

// flowState is the per-flow driver state.
type flowState struct {
	rx *ring.HWRing // CPU-involved receive ring; nil for bypass flows
	// pollOut backs the batch Poll returns; reused across polls (the
	// consuming core delivers a batch before polling the flow again).
	pollOut []*pkt.Packet
	pending int  // this flow's packets parked in the partition FIFO
	gone    bool // torn down; parked packets were drained at removal
}

// job carries one packet's (datapath, flow, packet) context through the
// window check and DMA completion; pool-recycled so the admission path
// schedules a carrier instead of allocating a closure per packet.
type job struct {
	d *RDCA
	f *iosys.Flow
	p *pkt.Packet
}

// partWindow is one LLC partition's receiver-driven window state. On an
// untenanted machine there is exactly one partition spanning the DDIO
// region; with Config.Tenancy the windows follow the waymask carve, and
// the controller re-reads partition capacities every tick so dynamic
// repartitioning moves the caps with the ways.
type partWindow struct {
	window   int // current admission window (I/O buffers)
	cap      int // Eq. 1 budget x residencyTarget
	inFlight int // admitted buffers not yet delivered

	// pend is the FIFO of arrivals awaiting window admission. Popping
	// advances a head index so the backing array is reused once drained
	// (the CEIO waitQ idiom); entries are pooled jobs.
	pend     []*job
	pendHead int

	evictedTick uint64 // in-flight evictions since the last adjust tick
}

func (pw *partWindow) pendLen() int { return len(pw.pend) - pw.pendHead }

// RDCA is the receiver-driven cache-resident datapath: an
// iosys.Datapath contender next to the baselines and CEIO.
type RDCA struct {
	m   *iosys.Machine
	opt Options

	wins []partWindow

	// inflight tags the admitted-but-unconsumed rx buffers with their
	// partition: the imminence predicate and the eviction hook consult
	// it so dataplane state lines sharing a partition are never counted.
	inflight cache.BufMap[int]
	pred     func(cache.BufID) bool // persistent ImminentIn predicate

	jobs sim.Carriers[job]

	// Statistics.
	Demoted         uint64 // bypass lines dropped from the LLC at delivery
	EvictedInflight uint64 // in-flight buffers evicted before consumption
	EvictShrinks    uint64 // multiplicative shrinks (eviction observed)
	ImminentShrinks uint64 // gentle shrinks (imminence threshold crossed)
	Grows           uint64 // additive grows (window saturated, no pressure)
	PendDrops       uint64 // bypass arrivals dropped by the parked-backlog bound
}

// New returns an RDCA datapath.
func New(opts Options) *RDCA {
	return &RDCA{opt: opts}
}

// Name implements iosys.Datapath.
func (d *RDCA) Name() string { return "RDCA" }

// Window controller timing.
const (
	// initialWindow is the per-partition starting window in I/O buffers.
	initialWindow int = 64
	// adjustPeriod is the window controller's tick on the engine clock.
	adjustPeriod sim.Time = 20 * sim.Microsecond
)

// Attach implements iosys.Datapath: size the per-partition windows from
// the live LLC carve (the tenant registry partitioned it before the
// datapath attaches) and arm the window controller on the engine clock.
func (d *RDCA) Attach(m *iosys.Machine) {
	d.m = m
	d.wins = make([]partWindow, m.LLC.Partitions())
	for pi := range d.wins {
		pw := &d.wins[pi]
		pw.cap = d.capBufs(pi)
		pw.window = initialWindow
		if d.opt.FixedWindow > 0 {
			pw.window = d.opt.FixedWindow
		} else if pw.window > pw.cap {
			pw.window = pw.cap
		}
	}
	d.pred = d.inflight.Has
	m.OnIOEvict = d.onIOEvict
	m.Eng.Every(adjustPeriod, adjustPeriod, d.adjust)
}

// Window bounds.
const (
	// residencyTarget scales the window cap: the fraction of the
	// partition's Eq. 1 budget the in-flight set may pin. Below 1.0 the
	// resident rx set leaves LLC headroom for application state.
	residencyTarget float64 = 0.5
	// minWindow is the shrink floor: the window never drops below it, so
	// a flow can always keep a few buffers in flight.
	minWindow int = 8
)

// capBufs returns partition pi's window cap in I/O buffers: the per-
// partition Eq. 1 budget (the same number tenant.Registry.Credits hands
// CEIO's per-tenant credit gate) scaled by the residency target.
func (d *RDCA) capBufs(pi int) int {
	c := int(float64(d.m.LLC.PartCapacity(pi)) * residencyTarget / float64(d.m.Cfg.IOBufSize))
	if c < minWindow {
		c = minWindow
	}
	return c
}

// FlowAdded allocates the flow's receive ring (CPU-involved only).
func (d *RDCA) FlowAdded(f *iosys.Flow) {
	st := &flowState{}
	if f.Kind == iosys.CPUInvolved {
		st.rx = ring.NewHWRing(d.m.Cfg.RxRingEntries)
	}
	f.DP = st
}

// FlowRemoved drains the flow's parked arrivals: a torn-down flow (host
// crash mid-window, fleet migration) will never be admitted, so its
// pending packets are dropped — the "drained buffers" of the fault
// model — while already-admitted packets complete normally.
func (d *RDCA) FlowRemoved(f *iosys.Flow) {
	st := f.DP.(*flowState)
	st.gone = true
	if st.pending == 0 {
		return
	}
	for pi := range d.wins {
		pw := &d.wins[pi]
		n := pw.pendHead
		for i := pw.pendHead; i < len(pw.pend); i++ {
			j := pw.pend[i]
			if j.f == f {
				st.pending--
				d.m.Drop(j.f, j.p)
				d.jobs.Put(j)
				continue
			}
			pw.pend[n] = j
			n++
		}
		pw.pend = pw.pend[:n]
		if pw.pendHead == len(pw.pend) {
			pw.pend, pw.pendHead = pw.pend[:0], 0
		}
	}
}

func (d *RDCA) getJob(f *iosys.Flow, p *pkt.Packet) *job {
	j := d.jobs.Get()
	j.d, j.f, j.p = d, f, p
	return j
}

// controlOverhead is the receiver-side per-packet cost of the window
// check — a host-driver comparison, not CEIO's on-NIC ARM-core credit
// controller, hence an order of magnitude cheaper.
const controlOverhead sim.Time = 20 * sim.Nanosecond

// Ingress posts the packet to the flow's rx ring and runs the window
// check after the (small) receiver-side control overhead.
func (d *RDCA) Ingress(f *iosys.Flow, p *pkt.Packet) {
	st := f.DP.(*flowState)
	if st.rx != nil {
		if st.rx.Free() == 0 {
			d.m.Drop(f, p)
			return
		}
	} else if st.pending >= d.m.Cfg.RxRingEntries {
		// A bypass flow has no host rx ring to bound it; cap its parked
		// backlog at the ring size. RDCA has no elastic buffer, so a
		// burst beyond the window + this bound is dropped and the
		// sender's CCA observes the loss — the collapse mode the rdca
		// experiment's bursty-DFS scenario measures.
		d.PendDrops++
		d.m.Drop(f, p)
		return
	}
	if !d.m.ReserveHostBuf(p) {
		d.m.DropNoHostBuf(f, p)
		return
	}
	if st.rx != nil {
		st.rx.Post(p)
	}
	d.m.Eng.After(controlOverhead, decide, d.getJob(f, p))
}

// decide admits the packet when the partition window has room, else
// parks it in FIFO order.
func decide(arg any) {
	j := arg.(*job)
	d, f := j.d, j.f
	pw := &d.wins[f.Partition()]
	if pw.inFlight < pw.window {
		d.admit(j)
		return
	}
	f.DP.(*flowState).pending++
	// Compact the consumed prefix before it forces the backing array to
	// grow: with a standing backlog the FIFO would otherwise extend
	// forever even though pendLen() stays bounded.
	if pw.pendHead > 0 && pw.pendHead*2 >= len(pw.pend) {
		n := copy(pw.pend, pw.pend[pw.pendHead:])
		for i := n; i < len(pw.pend); i++ {
			pw.pend[i] = nil
		}
		pw.pend, pw.pendHead = pw.pend[:n], 0
	}
	pw.pend = append(pw.pend, j)
}

// admit puts the packet's buffer in flight: tag it, count it against
// the window, and DMA it into the DDIO region.
func (d *RDCA) admit(j *job) {
	pw := &d.wins[j.f.Partition()]
	pw.inFlight++
	d.inflight.Put(j.p.Buf, j.f.Partition())
	d.m.DMAToHost(j.p, landed, j)
}

// landed fires when the packet's lines are resident: involved packets
// wait in the rx ring for their core's poll; bypass packets stream
// onward through the memory controller.
func landed(arg any) {
	j := arg.(*job)
	d, f, p := j.d, j.f, j.p
	d.jobs.Put(j)
	if f.Kind == iosys.CPUBypass {
		d.m.ConsumeBypass(f, p)
	}
}

// Poll hands landed packets from the flow's rx ring to the core.
func (d *RDCA) Poll(f *iosys.Flow, max int) []*pkt.Packet {
	st := f.DP.(*flowState)
	out := st.pollOut[:0]
	for len(out) < max {
		head := st.rx.Peek()
		if head == nil || !head.Landed {
			break
		}
		out = append(out, st.rx.Pop())
	}
	st.pollOut = out
	return out
}

// OnDelivered recycles the buffer the moment its payload is consumed:
// the window slot frees (admitting a parked packet immediately — this
// is what makes the window receiver-driven: deliveries clock
// admissions), and a bypass line still resident in the LLC is demoted
// now instead of lingering dirty until capacity pressure evicts it.
// CPU-involved reads already retired their line at ConsumeIn.
func (d *RDCA) OnDelivered(f *iosys.Flow, p *pkt.Packet) {
	pw := &d.wins[f.Partition()]
	pw.inFlight--
	if _, ok := d.inflight.Delete(p.Buf); ok {
		if f.Kind == iosys.CPUBypass && d.m.LLC.Resident(p.Ref) {
			d.m.LLC.Drop(p.Ref)
			d.Demoted++
		}
	}
	d.admitPending(pw)
}

// onIOEvict is the machine's eviction-sink observer: an in-flight rx
// buffer pushed out of the LLC before consumption means the window
// outran residency — the strongest shrink signal the controller has.
func (d *RDCA) onIOEvict(id cache.BufID) {
	part, ok := d.inflight.Delete(id)
	if !ok {
		return
	}
	d.EvictedInflight++
	d.wins[part].evictedTick++
}

// Window resize policy.
const (
	// growStep is the additive window increase applied when an adjust
	// tick finds the window saturated and no eviction pressure.
	growStep int = 8
	// imminenceBufs is the LRU-tail distance, in I/O buffers, within
	// which a tagged in-flight buffer counts as eviction-imminent.
	imminenceBufs int = 4
)

// adjust is the window controller tick: refresh the cap from the live
// partition carve, resize on eviction/imminence/saturation, and admit
// parked arrivals into any freed window.
func (d *RDCA) adjust() {
	for pi := range d.wins {
		pw := &d.wins[pi]
		pw.cap = d.capBufs(pi)
		if d.opt.FixedWindow > 0 {
			pw.window = d.opt.FixedWindow
		} else {
			switch {
			case pw.evictedTick > 0:
				// Residency was lost: halve toward the floor.
				pw.window /= 2
				if pw.window < minWindow {
					pw.window = minWindow
				}
				d.EvictShrinks++
			case d.m.LLC.ImminentIn(pi, int64(imminenceBufs*d.m.Cfg.IOBufSize), d.pred) > 0:
				// In-flight buffers near the eviction tail: back off
				// gently before residency is actually lost.
				pw.window -= pw.window / 8
				if pw.window < minWindow {
					pw.window = minWindow
				}
				d.ImminentShrinks++
			case pw.inFlight >= pw.window:
				// Saturated and cache-clean: probe upward.
				pw.window += growStep
				d.Grows++
			}
			if pw.window > pw.cap {
				pw.window = pw.cap
			}
		}
		pw.evictedTick = 0
		d.admitPending(pw)
	}
}

// admitPending drains the partition FIFO into free window slots.
func (d *RDCA) admitPending(pw *partWindow) {
	for pw.inFlight < pw.window && pw.pendHead < len(pw.pend) {
		j := pw.pend[pw.pendHead]
		pw.pend[pw.pendHead] = nil
		pw.pendHead++
		if pw.pendHead == len(pw.pend) {
			pw.pend, pw.pendHead = pw.pend[:0], 0
		}
		j.f.DP.(*flowState).pending--
		d.admit(j)
	}
}

// Window returns partition pi's current admission window in buffers.
func (d *RDCA) Window(pi int) int { return d.wins[pi].window }

// WindowCap returns partition pi's window cap in buffers.
func (d *RDCA) WindowCap(pi int) int { return d.wins[pi].cap }

// Pending returns partition pi's parked arrival count.
func (d *RDCA) Pending(pi int) int { return d.wins[pi].pendLen() }

// AuditWindows checks the conservation invariants the property tests
// and chaos auditor rely on: per-partition inFlight and pending counts
// are non-negative, tagged buffers never exceed the admitted
// population, and every parked job belongs to a live flow.
func (d *RDCA) AuditWindows() error {
	total := 0
	for pi := range d.wins {
		pw := &d.wins[pi]
		if pw.inFlight < 0 {
			return errNegative("inFlight", pi, pw.inFlight)
		}
		if pw.pendLen() < 0 {
			return errNegative("pending", pi, pw.pendLen())
		}
		for i := pw.pendHead; i < len(pw.pend); i++ {
			if j := pw.pend[i]; j.f.DP.(*flowState).gone {
				return errStalePend(pi, j.f.ID)
			}
		}
		total += pw.inFlight
	}
	if d.inflight.Len() > total {
		return fmt.Errorf("rdca: %d tagged in-flight buffers exceed %d admitted", d.inflight.Len(), total)
	}
	return nil
}

func errNegative(what string, pi, v int) error {
	return fmt.Errorf("rdca: partition %d %s went negative (%d)", pi, what, v)
}

func errStalePend(pi, flowID int) error {
	return fmt.Errorf("rdca: partition %d holds a parked packet of removed flow %d", pi, flowID)
}
