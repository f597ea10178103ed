// Package baseline implements the comparison I/O architectures of the
// paper's evaluation: the unmanaged legacy DDIO datapath, HostCC's
// reactive host congestion control, and ShRing's fixed shared receive
// ring. Each is an iosys.Datapath; CEIO itself lives in internal/core.
package baseline

import (
	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/ring"
)

// flowState is the per-flow driver state shared by the baseline paths.
type flowState struct {
	rx *ring.HWRing
	// pollOut backs the batch Poll returns; reused across polls (the
	// consuming core delivers a batch before polling the flow again).
	pollOut []*pkt.Packet
}

// Legacy is the unmanaged DDIO datapath of Figure 2: per-flow hardware
// receive rings, DMA straight into the DDIO region of the LLC, no I/O
// rate or capacity management. Under memory pressure its in-flight volume
// is bounded only by the ring sizes, far above the DDIO capacity, so the
// LLC thrashes.
type Legacy struct {
	m *iosys.Machine
}

// NewLegacy returns the baseline datapath.
func NewLegacy() *Legacy { return &Legacy{} }

// Name implements iosys.Datapath.
func (l *Legacy) Name() string { return "Baseline" }

// Attach implements iosys.Datapath.
func (l *Legacy) Attach(m *iosys.Machine) { l.m = m }

// FlowAdded allocates the flow's receive ring.
func (l *Legacy) FlowAdded(f *iosys.Flow) {
	f.DP = &flowState{rx: ring.NewHWRing(l.m.Cfg.RxRingEntries)}
}

// FlowRemoved implements iosys.Datapath.
func (l *Legacy) FlowRemoved(f *iosys.Flow) {}

// Ingress posts the packet to the flow's rx ring (dropping when the ring
// is full) and DMAs it to the host.
func (l *Legacy) Ingress(f *iosys.Flow, p *pkt.Packet) {
	switch f.Kind {
	case iosys.CPUInvolved:
		st := f.DP.(*flowState)
		if st.rx.Free() == 0 {
			l.m.Drop(f, p)
			return
		}
		if !l.m.ReserveHostBuf(p) {
			l.m.DropNoHostBuf(f, p)
			return
		}
		st.rx.Post(p)
		l.m.DMAToHost(p, nil, nil)
	default: // CPU-bypass: RDMA-style, no rx ring limit on the host side
		if !l.m.ReserveHostBuf(p) {
			l.m.DropNoHostBuf(f, p)
			return
		}
		l.m.DMAToHostAndConsume(f, p)
	}
}

// Poll hands landed packets from the flow's rx ring to the core.
func (l *Legacy) Poll(f *iosys.Flow, max int) []*pkt.Packet {
	return popLanded(f.DP.(*flowState), max)
}

// OnDelivered implements iosys.Datapath.
func (l *Legacy) OnDelivered(f *iosys.Flow, p *pkt.Packet) {}

// popLanded pops in-order packets whose DMA completed into the flow's
// reused poll batch.
func popLanded(st *flowState, max int) []*pkt.Packet {
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
