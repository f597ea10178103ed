package iosys

import (
	"ceio/internal/pkt"
	"ceio/internal/sim"
)

// Core models one CPU core running a DPDK-style polling loop: ask the
// datapath driver for a batch, spend the modelled CPU time, hand the
// packets to the application, repeat. An empty poll retries after the
// configured poll interval.
//
// In the legacy layout (Config.Cores == 0) each core is dedicated to one
// CPU-involved flow (the paper pins one core per I/O flow, §2.3). With
// Config.Cores > 0 a core instead drains one rx queue, round-robining the
// CPU-involved flows RSS hashed onto it; all cores share the LLC/DDIO
// region, memory controller, and PCIe link through the common Machine
// models, so they contend exactly where real cores do.
type Core struct {
	m     *Machine
	queue int // rx queue index, -1 for a legacy per-flow core

	flows  []*Flow // flows this core drains (len 1 in the legacy layout)
	cursor int     // round-robin position into flows

	running    bool
	idleStreak int

	// A core processes one batch at a time, so the in-flight batch rides
	// in the fields below between the poll and its service completion.
	batch     []*pkt.Packet
	batchFlow *Flow
	batchCost sim.Time

	// Statistics.
	Polls      uint64
	EmptyPolls uint64
	Processed  uint64
	BusyTime   sim.Time
	StallTime  sim.Time // injected CPU stall time absorbed by this core
}

// maxIdleBackoff caps the poll back-off for long-idle cores so thousands
// of idle flows don't flood the event queue (the flow-scaling runs).
const maxIdleBackoff = 128

func newCore(m *Machine, f *Flow) *Core {
	return &Core{m: m, queue: -1, flows: []*Flow{f}}
}

func newQueueCore(m *Machine, queue int) *Core {
	return &Core{m: m, queue: queue}
}

// Queue returns the rx queue this core drains, -1 for a legacy per-flow
// core.
func (c *Core) Queue() int { return c.queue }

// FlowCount returns the number of flows currently assigned to this core.
func (c *Core) FlowCount() int { return len(c.flows) }

// addFlow hands a flow to this core's poll loop, starting the loop if the
// core was idle with no flows.
func (c *Core) addFlow(f *Flow) {
	c.flows = append(c.flows, f)
	c.start()
}

// removeFlow detaches a flow; the core parks (stops polling) once its
// last flow leaves.
func (c *Core) removeFlow(id int) {
	for i, f := range c.flows {
		if f.ID == id {
			c.flows = append(c.flows[:i], c.flows[i+1:]...)
			if c.cursor > i {
				c.cursor--
			}
			break
		}
	}
	if len(c.flows) == 0 {
		c.stop()
	} else if c.cursor >= len(c.flows) {
		c.cursor = 0
	}
}

func (c *Core) start() {
	if c.running {
		return
	}
	c.running = true
	c.idleStreak = 0
	c.m.Eng.After(0, coreLoop, c)
}

func (c *Core) stop() { c.running = false }

// coreLoop and coreServe are the poll loop's scheduling trampolines: the
// core rides as the event argument, so steady-state polling does not
// allocate.
func coreLoop(arg any)  { arg.(*Core).loop() }
func coreServe(arg any) { arg.(*Core).serveBatch() }

func (c *Core) loop() {
	if !c.running || len(c.flows) == 0 {
		return
	}
	c.Polls++
	// Round-robin service: starting at the cursor, the first flow with a
	// non-empty batch wins the poll. With a single flow this is exactly
	// the legacy dedicated-core loop, event for event.
	var batch []*pkt.Packet
	var flow *Flow
	n := len(c.flows)
	for i := 0; i < n; i++ {
		cand := c.flows[(c.cursor+i)%n]
		if b := c.m.DP.Poll(cand, c.m.Cfg.BatchSize); len(b) > 0 {
			batch, flow = b, cand
			c.cursor = (c.cursor + i + 1) % n
			break
		}
	}
	if len(batch) == 0 {
		c.EmptyPolls++
		// Exponential back-off while idle: a busy core re-polls at the
		// configured interval, a long-idle one at up to 128x that.
		if c.idleStreak < maxIdleBackoff {
			c.idleStreak += c.idleStreak + 1
		}
		backoff := c.idleStreak
		if backoff > maxIdleBackoff {
			backoff = maxIdleBackoff
		}
		c.m.Eng.After(c.m.Cfg.PollInterval*sim.Time(backoff), coreLoop, c)
		return
	}
	c.idleStreak = 0
	var total sim.Time
	for _, p := range batch {
		total += c.m.PacketCPUCost(flow, p)
	}
	// Injected per-core stall (IRQ storm, co-tenant preemption): the batch
	// takes longer, backpressuring the ring and, transitively, the wire.
	if stall := c.m.Faults.CPUStall(c.m.Eng.Now()); stall > 0 {
		c.StallTime += stall
		total += stall
	}
	c.batch, c.batchFlow, c.batchCost = batch, flow, total
	c.m.Eng.After(total, coreServe, c)
}

// serveBatch completes the in-flight batch after its modelled CPU time:
// the packets are delivered to the application and the loop re-polls.
func (c *Core) serveBatch() {
	batch, flow := c.batch, c.batchFlow
	c.BusyTime += c.batchCost
	c.batch, c.batchFlow = nil, nil
	for _, p := range batch {
		c.Processed++
		c.m.Deliver(flow, p)
	}
	c.loop()
}

// Utilization reports the fraction of wall time this core spent
// processing packets.
func (c *Core) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(c.BusyTime) / float64(now)
}
