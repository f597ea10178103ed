// Package pcie models the PCIe interconnect between the NIC and the host:
// TLP framing overhead, per-direction link bandwidth, a bounded number of
// outstanding DMA credits, and the hand-off into the host's IIO staging
// buffer. Exhaustion of DMA credits while the host is slow to drain the
// IIO is the mechanism by which inefficient LLC use blocks CPU-bypass
// flows in the paper's analysis (§2.2, impact ②).
package pcie

import (
	"ceio/internal/cache"
	"ceio/internal/faults"
	"ceio/internal/sim"
)

// LinkConfig describes one direction of a PCIe link.
type LinkConfig struct {
	// Bandwidth is the usable data bandwidth in bytes/second
	// (after encoding; PCIe 5.0 x16 is ~63 GB/s raw, ~55 GB/s effective).
	Bandwidth float64
	// PropagationDelay is the one-way latency across the interconnect.
	PropagationDelay sim.Time
	// MaxPayload is the TLP payload size in bytes (typically 256).
	MaxPayload int
	// TLPHeader is the per-TLP framing overhead in bytes (~24).
	TLPHeader int
}

// DefaultLinkConfig matches a PCIe 5.0 x16 interconnect.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		Bandwidth:        55e9,
		PropagationDelay: 350 * sim.Nanosecond,
		MaxPayload:       256,
		TLPHeader:        24,
	}
}

// Link is one direction of the PCIe interconnect.
type Link struct {
	cfg LinkConfig
	srv *sim.Server
}

// NewLink builds a link from its configuration.
func NewLink(eng *sim.Engine, cfg LinkConfig) *Link {
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = 256
	}
	return &Link{cfg: cfg, srv: sim.NewServer(eng, cfg.Bandwidth, cfg.PropagationDelay)}
}

// WireBytes returns the on-wire size of a transfer of size payload bytes,
// including TLP headers.
func (l *Link) WireBytes(size int) int {
	if size <= 0 {
		return l.cfg.TLPHeader
	}
	tlps := (size + l.cfg.MaxPayload - 1) / l.cfg.MaxPayload
	return size + tlps*l.cfg.TLPHeader
}

// Transfer clocks a transfer across the link; fn(arg) fires on arrival.
func (l *Link) Transfer(size int, fn func(any), arg any) sim.Time {
	return l.srv.Submit(l.WireBytes(size), fn, arg)
}

// QueueDelay reports current serialisation backlog on the link.
func (l *Link) QueueDelay() sim.Time { return l.srv.QueueDelay() }

// Utilization reports the link's busy fraction since simulation start.
func (l *Link) Utilization() float64 { return l.srv.Utilization() }

// Engine models the NIC's DMA engine: a bounded pool of outstanding
// write credits toward the host. Writes traverse the NIC->host link, stage
// into the IIO buffer, and hold their credit until the host memory
// subsystem absorbs them (Absorbed).
type Engine struct {
	eng    *sim.Engine
	toHost *Link
	toNIC  *Link
	iio    *cache.IIO

	writeCredits int
	maxCredits   int
	pendingW     []*writeOp

	// iioWaiting parks writes rejected by a full IIO until it drains.
	iioWaiting []*writeOp

	// writes is the write-carrier free list.
	writes sim.Carriers[writeOp]

	// Read-tag pool: PCIe non-posted reads carry a bounded number of
	// outstanding tags; excess read requests queue. This is the
	// aggregate bottleneck of CEIO's slow path at high flow counts
	// (§6.4 "Understanding Performance Penalties of Slow Path").
	readCredits int
	maxReads    int
	pendingR    []*readOp

	// reads is the read-carrier free list.
	reads sim.Carriers[readOp]

	// Faults, when set, injects DMA stall episodes: new writes and reads
	// are held until the stall window ends (PCIe credit exhaustion).
	Faults *faults.Injector

	// Statistics.
	Writes          uint64
	Reads           uint64
	CreditStalls    uint64
	ReadStalls      uint64
	IIOBackpressure uint64
	FaultStalls     uint64 // operations deferred by injected DMA stalls
}

// readOp is one in-flight DMA read: a pool-recycled carrier that rides
// the request TLP to the NIC, the device access, and the payload return
// without allocating.
type readOp struct {
	d             *Engine
	size          int
	deviceLatency sim.Time
	fn            func(any)
	arg           any
}

// writeOp is one in-flight DMA write: a pool-recycled carrier that rides
// the engine's event queue from issue to IIO arrival without allocating.
type writeOp struct {
	d    *Engine
	size int
	fn   func(any)
	arg  any
}

// NewEngine builds a DMA engine with maxOutstanding write credits and a
// read-tag pool of half that size.
func NewEngine(eng *sim.Engine, toHost, toNIC *Link, iio *cache.IIO, maxOutstanding int) *Engine {
	if maxOutstanding <= 0 {
		maxOutstanding = 64
	}
	maxReads := maxOutstanding / 8
	if maxReads < 4 {
		maxReads = 4
	}
	return &Engine{
		eng:          eng,
		toHost:       toHost,
		toNIC:        toNIC,
		iio:          iio,
		writeCredits: maxOutstanding,
		maxCredits:   maxOutstanding,
		readCredits:  maxReads,
		maxReads:     maxReads,
	}
}

// OutstandingReads reports read tags currently in use.
func (d *Engine) OutstandingReads() int { return d.maxReads - d.readCredits }

// OutstandingWrites reports write credits currently in use.
func (d *Engine) OutstandingWrites() int { return d.maxCredits - d.writeCredits }

// Write issues a DMA write of size bytes toward the host. fn(arg) runs
// when the data reaches the head of the IIO buffer; the host memory
// subsystem must then call Absorbed(size) exactly once, when it has
// absorbed the data. Like the engine's At, the long-lived fn plus
// explicit arg make a steady-state write allocation-free.
func (d *Engine) Write(size int, fn func(any), arg any) {
	w := d.writes.Get()
	*w = writeOp{d: d, size: size, fn: fn, arg: arg}
	issueWrite(w)
}

// Absorbed signals that the host absorbed a delivered write of size
// bytes: the IIO slot drains, the DMA credit frees (admitting a queued
// write, if any), and parked IIO-backpressured writes retry.
func (d *Engine) Absorbed(size int) {
	d.iio.Drain(int64(size))
	d.releaseWriteCredit()
	d.retryIIOWaiters()
}

// issueWrite holds a write through any injected DMA stall, then takes a
// write credit or queues for one.
func issueWrite(arg any) {
	w := arg.(*writeOp)
	d := w.d
	if end := d.Faults.DMAStallEnd(d.eng.Now()); end > 0 {
		d.FaultStalls++
		d.eng.At(end, issueWrite, w)
		return
	}
	if d.writeCredits == 0 {
		d.CreditStalls++
		d.pendingW = append(d.pendingW, w)
		return
	}
	d.writeCredits--
	d.Writes++
	d.toHost.Transfer(w.size, writeArrived, w)
}

func writeArrived(arg any) {
	w := arg.(*writeOp)
	d := w.d
	if !d.iio.TryEnqueue(int64(w.size)) {
		// IIO full: the root complex exerts backpressure. Park the write;
		// it is retried whenever the IIO drains.
		d.IIOBackpressure++
		d.iioWaiting = append(d.iioWaiting, w)
		return
	}
	d.deliver(w)
}

// deliver hands a write at the IIO head to its callback, recycling the
// carrier first.
func (d *Engine) deliver(w *writeOp) {
	fn, arg := w.fn, w.arg
	d.writes.Put(w)
	fn(arg)
}

func (d *Engine) releaseWriteCredit() {
	d.writeCredits++
	if len(d.pendingW) > 0 && d.writeCredits > 0 {
		next := d.pendingW[0]
		d.pendingW[0] = nil
		d.pendingW = d.pendingW[1:]
		d.writeCredits--
		d.Writes++
		d.toHost.Transfer(next.size, writeArrived, next)
	}
}

func (d *Engine) retryIIOWaiters() {
	for len(d.iioWaiting) > 0 {
		w := d.iioWaiting[0]
		if !d.iio.TryEnqueue(int64(w.size)) {
			return
		}
		d.iioWaiting[0] = nil
		d.iioWaiting = d.iioWaiting[1:]
		d.deliver(w)
	}
}

// Read issues a DMA read of size bytes from device memory into the host
// (the CEIO slow-path fetch). The request header crosses to the NIC, the
// device serves it (deviceLatency covers on-NIC memory access and any
// internal switch traversal), and the payload crosses back. fn(arg) fires
// when the payload lands in host memory. Reads beyond the tag pool queue
// FIFO — the shared bottleneck that caps aggregate slow-path throughput
// when many flows drain concurrently. Like the engine's At, the
// long-lived fn plus explicit arg make a steady-state read
// allocation-free.
func (d *Engine) Read(size int, deviceLatency sim.Time, fn func(any), arg any) {
	r := d.reads.Get()
	*r = readOp{d: d, size: size, deviceLatency: deviceLatency, fn: fn, arg: arg}
	issueRead(r)
}

// issueRead holds a read through any injected DMA stall, then takes a
// read tag or queues for one.
func issueRead(arg any) {
	r := arg.(*readOp)
	d := r.d
	if end := d.Faults.DMAStallEnd(d.eng.Now()); end > 0 {
		d.FaultStalls++
		d.eng.At(end, issueRead, r)
		return
	}
	if d.readCredits == 0 {
		d.ReadStalls++
		d.pendingR = append(d.pendingR, r)
		return
	}
	d.readCredits--
	d.startRead(r)
}

func (d *Engine) startRead(r *readOp) {
	d.Reads++
	// Request TLP toward the NIC.
	d.toNIC.Transfer(32, readReqArrived, r)
}

func readReqArrived(arg any) {
	r := arg.(*readOp)
	r.d.eng.After(r.deviceLatency, readDeviceServed, r)
}

func readDeviceServed(arg any) {
	r := arg.(*readOp)
	r.d.toHost.Transfer(r.size, readPayloadLanded, r)
}

func readPayloadLanded(arg any) {
	r := arg.(*readOp)
	d := r.d
	fn, farg := r.fn, r.arg
	d.reads.Put(r)
	fn(farg)
	d.readCredits++
	if len(d.pendingR) > 0 && d.readCredits > 0 {
		next := d.pendingR[0]
		d.pendingR[0] = nil
		d.pendingR = d.pendingR[1:]
		d.readCredits--
		d.startRead(next)
	}
}
