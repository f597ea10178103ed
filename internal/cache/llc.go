// Package cache models the host memory hierarchy that CEIO manages:
// the DDIO-accessible region of the Last-Level Cache, the DRAM behind it,
// the memory controller's shared bandwidth, and the IIO (Integrated I/O)
// staging buffer whose occupancy HostCC uses as a congestion signal.
//
// The model captures the mechanism the paper attributes LLC misses to:
// DDIO writes land in a bounded region of the LLC; when in-flight I/O data
// exceeds that region, the least-recently written unconsumed buffers are
// evicted to DRAM, and the CPU later pays a DRAM access (latency plus
// memory bandwidth) to read them (§2.2 of the paper).
package cache

import "fmt"

// BufID identifies one I/O buffer in flight through the hierarchy.
type BufID uint64

// node is an intrusive doubly-linked LRU list node.
type node struct {
	id         BufID
	size       int64
	payload    int64
	part       int
	prev, next *node
}

// Evicted describes one buffer pushed out of the LLC: its ID plus the
// payload bytes recorded at insert, so the caller can charge the DRAM
// writeback without keeping a side table of buffer sizes (the old
// bufBytes map on the emit path).
type Evicted struct {
	ID BufID
	// Payload is the dirty bytes to write back (the packet payload for
	// I/O buffers; cache-line sized for dataplane state lines).
	Payload int64
}

// PartStats counts one partition's cache events.
type PartStats struct {
	Insertions uint64
	Evictions  uint64
	Hits       uint64
	Misses     uint64
}

// QueueStats counts the consume-side cache events attributed to one rx
// queue's core on a multi-queue machine. Unlike PartStats (where the DMA
// writes land), queue attribution records which core paid for each read,
// so per-core hit rates expose cross-core LLC contention.
type QueueStats struct {
	Hits   uint64
	Misses uint64
}

// MissRate returns misses/(hits+misses) for this queue.
func (s QueueStats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// partition is one way-granular slice of the DDIO region: an independent
// LRU list with its own byte capacity. The unpartitioned cache is exactly
// one partition spanning the whole region.
type partition struct {
	capacity  int64
	occupancy int64
	head      *node // most recently inserted/touched
	tail      *node // least recently used: next eviction victim
	stats     PartStats
}

// LLC models the DDIO-accessible region of the last-level cache as an
// LRU-ordered set of resident I/O buffers with a byte-capacity bound.
// The region can be carved into way-granular partitions (CAT-style cache
// allocation for multi-tenant isolation); each partition runs its own LRU
// replacement, and the per-partition occupancies always sum to the
// region's total occupancy.
type LLC struct {
	capacity  int64
	occupancy int64

	entries BufMap[*node] // resident buffers by ID
	parts   []partition

	// queueStats, when enabled, attributes consume-side hits/misses to rx
	// queues (one slot per simulated core); nil on single-core machines.
	queueStats []QueueStats

	// onEvict, if set, is invoked for each buffer evicted to DRAM.
	onEvict func(BufID)

	// freeNodes recycles LRU nodes (chained through node.next) so the
	// steady-state insert/evict/consume churn of the DMA path does not
	// allocate.
	freeNodes *node
	// evictScratch backs the eviction list InsertIOIn returns; the slice
	// is reused on the next insert, which is safe because every caller
	// consumes it before touching the cache again.
	evictScratch []Evicted

	// Statistics (sums over all partitions).
	Insertions uint64
	Evictions  uint64
	Hits       uint64
	Misses     uint64
}

// NewLLC creates an LLC model with the given DDIO-region capacity in
// bytes, initially one partition spanning the whole region.
func NewLLC(capacityBytes int64) *LLC {
	if capacityBytes <= 0 {
		panic("cache: LLC capacity must be positive")
	}
	return &LLC{
		capacity: capacityBytes,
		parts:    []partition{{capacity: capacityBytes}},
	}
}

// SetEvictHandler registers a callback invoked for every eviction.
func (c *LLC) SetEvictHandler(fn func(BufID)) { c.onEvict = fn }

// Capacity returns the DDIO-region size in bytes.
func (c *LLC) Capacity() int64 { return c.capacity }

// Occupancy returns the bytes currently resident across all partitions.
func (c *LLC) Occupancy() int64 { return c.occupancy }

// Resident reports whether id is currently cached.
func (c *LLC) Resident(id BufID) bool { return c.entries.Has(id) }

// Len returns the number of resident buffers.
func (c *LLC) Len() int { return c.entries.Len() }

// Partitions returns the number of partitions (1 when unpartitioned).
func (c *LLC) Partitions() int { return len(c.parts) }

// PartCapacity returns partition i's byte capacity.
func (c *LLC) PartCapacity(i int) int64 { return c.parts[i].capacity }

// PartOccupancy returns partition i's resident bytes.
func (c *LLC) PartOccupancy(i int) int64 { return c.parts[i].occupancy }

// PartStats returns a copy of partition i's event counters.
func (c *LLC) PartStats(i int) PartStats { return c.parts[i].stats }

// Partition carves the region into len(capacities) partitions with the
// given byte capacities. It is a setup-time operation: the cache must be
// empty, and the capacities must be non-negative and sum to the region's
// total capacity (so partition occupancies always sum to the machine
// total).
func (c *LLC) Partition(capacities []int64) error {
	if c.entries.Len() != 0 {
		return fmt.Errorf("cache: partitioning a non-empty LLC (%d resident buffers)", c.entries.Len())
	}
	if len(capacities) == 0 {
		return fmt.Errorf("cache: partitioning into zero partitions")
	}
	var sum int64
	for i, cap := range capacities {
		if cap < 0 {
			return fmt.Errorf("cache: partition %d has negative capacity %d", i, cap)
		}
		sum += cap
	}
	if sum != c.capacity {
		return fmt.Errorf("cache: partition capacities sum to %d, want LLC capacity %d", sum, c.capacity)
	}
	c.parts = make([]partition, len(capacities))
	for i, cap := range capacities {
		c.parts[i].capacity = cap
	}
	return nil
}

// MoveCapacity atomically transfers bytes of capacity from one partition
// to another (a waymask update in the CAT substitution). Lines the
// shrinking partition can no longer hold are evicted LRU-first — losing a
// way flushes its resident lines — and returned; the eviction handler
// also fires for each. Total capacity is conserved.
func (c *LLC) MoveCapacity(from, to int, bytes int64) (evicted []Evicted) {
	if from == to {
		panic(fmt.Sprintf("cache: MoveCapacity from partition %d to itself", from))
	}
	if bytes <= 0 {
		return nil
	}
	src, dst := &c.parts[from], &c.parts[to]
	if bytes > src.capacity {
		panic(fmt.Sprintf("cache: MoveCapacity %d bytes from partition %d holding %d", bytes, from, src.capacity))
	}
	src.capacity -= bytes
	dst.capacity += bytes
	for src.occupancy > src.capacity && src.tail != nil {
		victim := src.tail
		src.unlink(victim)
		c.entries.Delete(victim.id)
		src.occupancy -= victim.size
		c.occupancy -= victim.size
		src.stats.Evictions++
		c.Evictions++
		evicted = append(evicted, Evicted{ID: victim.id, Payload: victim.payload})
		if c.onEvict != nil {
			c.onEvict(victim.id)
		}
		c.freeNode(victim)
	}
	return evicted
}

func (c *LLC) allocNode(id BufID, size, payload int64, part int) *node {
	n := c.freeNodes
	if n == nil {
		return &node{id: id, size: size, payload: payload, part: part}
	}
	c.freeNodes = n.next
	*n = node{id: id, size: size, payload: payload, part: part}
	return n
}

func (c *LLC) freeNode(n *node) {
	*n = node{next: c.freeNodes}
	c.freeNodes = n
}

func (p *partition) pushFront(n *node) {
	n.prev = nil
	n.next = p.head
	if p.head != nil {
		p.head.prev = n
	}
	p.head = n
	if p.tail == nil {
		p.tail = n
	}
}

func (p *partition) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		p.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		p.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// InsertIO models a DDIO write into partition 0 (the whole region when
// unpartitioned); see InsertIOIn.
func (c *LLC) InsertIO(id BufID, size int64) (evicted []Evicted) {
	return c.InsertIOSized(0, id, size, size)
}

// InsertIOIn is InsertIOSized with the payload equal to the cache
// footprint (buffers whose dirty data fills their lines).
func (c *LLC) InsertIOIn(part int, id BufID, size int64) (evicted []Evicted) {
	return c.InsertIOSized(part, id, size, size)
}

// InsertIOSized models a DDIO write of one I/O buffer into partition
// part. size is the cache footprint the buffer occupies (the pooled
// buffer granularity); payload is the dirty bytes a later eviction must
// write back (the packet payload), carried inside the LRU node so no
// side table is needed. If the partition is full, its
// least-recently-used buffers are evicted to DRAM until the new buffer
// fits ("subsequent packets overwrite earlier ones", §2.2). The evicted
// buffers are returned with their payloads (the eviction handler also
// fires). Inserting an already-resident buffer refreshes it to MRU
// within its home partition.
//
// The returned slice is valid only until the next insert: it is backed by
// a scratch buffer reused across calls, so callers must consume it before
// re-entering the cache (every datapath caller does so synchronously).
func (c *LLC) InsertIOSized(part int, id BufID, size, payload int64) (evicted []Evicted) {
	if size <= 0 {
		panic(fmt.Sprintf("cache: insert of non-positive size %d", size))
	}
	p := &c.parts[part]
	evicted = c.evictScratch[:0]
	if size > p.capacity {
		// A buffer that can never fit bypasses the cache entirely (this
		// also covers a partition shrunk to zero ways). The miss is NOT
		// counted here: the consumer's later Consume/Probe on the
		// non-resident ID charges it exactly once, at read time.
		if c.onEvict != nil {
			c.onEvict(id)
		}
		evicted = append(evicted, Evicted{ID: id, Payload: payload})
		c.evictScratch = evicted
		return evicted
	}
	if n, ok := c.entries.Get(id); ok {
		// Refresh within the buffer's home partition (a buffer belongs to
		// one flow, and a flow's partition is fixed for its lifetime).
		p = &c.parts[n.part]
		p.occupancy += size - n.size
		c.occupancy += size - n.size
		n.size = size
		n.payload = payload
		p.unlink(n)
		p.pushFront(n)
	} else {
		n := c.allocNode(id, size, payload, part)
		c.entries.Put(id, n)
		p.pushFront(n)
		p.occupancy += size
		c.occupancy += size
		p.stats.Insertions++
		c.Insertions++
	}
	for p.occupancy > p.capacity && p.tail != nil {
		victim := p.tail
		if victim.id == id && victim.prev == nil {
			// The just-inserted buffer is the only one in its partition;
			// keep it resident even over capacity.
			break
		}
		p.unlink(victim)
		c.entries.Delete(victim.id)
		p.occupancy -= victim.size
		c.occupancy -= victim.size
		p.stats.Evictions++
		c.Evictions++
		evicted = append(evicted, Evicted{ID: victim.id, Payload: victim.payload})
		if c.onEvict != nil {
			c.onEvict(victim.id)
		}
		c.freeNode(victim)
	}
	c.evictScratch = evicted
	return evicted
}

// ImminentIn counts resident buffers in partition part whose eviction
// distance is within thresholdBytes and that satisfy pred. A buffer's
// eviction distance is the bytes of DDIO inserts into the partition that
// would push it out: the partition's free capacity (inserts that fit
// evict nothing) plus the resident size of every line closer to the LRU
// tail. The walk starts at the tail (the next victim) and is bounded by
// thresholdBytes of accumulated distance, not the partition population,
// so a small threshold keeps the probe O(threshold/bufsize) — and a
// partition with more than thresholdBytes free reports 0 without
// touching the list at all. RDCA's window controller (internal/rdca)
// polls this as its eviction-imminence signal — shrink the in-flight
// window before the oldest rx buffers age out — with pred selecting its
// own tagged rx BufIDs so dataplane state lines sharing the partition
// are not counted.
func (c *LLC) ImminentIn(part int, thresholdBytes int64, pred func(BufID) bool) int {
	if thresholdBytes <= 0 {
		return 0
	}
	p := &c.parts[part]
	dist := p.capacity - p.occupancy
	count := 0
	for n := p.tail; n != nil && dist < thresholdBytes; n = n.prev {
		if pred == nil || pred(n.id) {
			count++
		}
		dist += n.size
	}
	return count
}

// PayloadOf returns the payload bytes recorded for a resident buffer,
// 0 when id is not resident.
func (c *LLC) PayloadOf(id BufID) int64 {
	if n, ok := c.entries.Get(id); ok {
		return n.payload
	}
	return 0
}

// TouchState models a CPU access to one cache line of dataplane module
// state (NAT tables, firewall connection entries, UPF sessions; see
// internal/dataplane) living in the same LLC region the DDIO writes
// land in. A resident line refreshes to MRU and reports a hit. A miss
// fills the line into partition part — evicting LRU victims exactly
// like a DDIO insert, which is how a heavy pipeline's working set
// pushes I/O buffers out and inflates the I/O miss rate — and reports
// the victims. Unlike InsertIOIn/ConsumeIn, TouchState does NOT bump
// the LLC's Insertions/Hits/Misses counters: those count the I/O path
// (DDIO writes and packet reads), and the paper's miss-ratio series
// must keep meaning that. Callers (the dataplane engine) keep their own
// per-module hit/miss counters. Eviction counters and the eviction
// handler fire normally, since a line leaving the region is a real
// eviction whatever displaced it.
//
// The returned slice shares the insert scratch buffer: consume it
// before re-entering the cache. A line wider than the partition (a
// zero-way carve) bypasses the cache: miss, nothing inserted.
func (c *LLC) TouchState(part int, id BufID, size int64) (hit bool, evicted []Evicted) {
	if size <= 0 {
		panic(fmt.Sprintf("cache: state touch of non-positive size %d", size))
	}
	if n, ok := c.entries.Get(id); ok {
		p := &c.parts[n.part]
		p.unlink(n)
		p.pushFront(n)
		return true, nil
	}
	p := &c.parts[part]
	if size > p.capacity {
		return false, nil
	}
	n := c.allocNode(id, size, size, part)
	c.entries.Put(id, n)
	p.pushFront(n)
	p.occupancy += size
	c.occupancy += size
	evicted = c.evictScratch[:0]
	for p.occupancy > p.capacity && p.tail != nil {
		victim := p.tail
		if victim.id == id && victim.prev == nil {
			break
		}
		p.unlink(victim)
		c.entries.Delete(victim.id)
		p.occupancy -= victim.size
		c.occupancy -= victim.size
		p.stats.Evictions++
		c.Evictions++
		evicted = append(evicted, Evicted{ID: victim.id, Payload: victim.payload})
		if c.onEvict != nil {
			c.onEvict(victim.id)
		}
		c.freeNode(victim)
	}
	c.evictScratch = evicted
	return false, evicted
}

// Consume is ConsumeIn against partition 0 (miss attribution when the
// buffer was never resident).
func (c *LLC) Consume(id BufID) bool { return c.ConsumeIn(0, id) }

// ConsumeIn models the CPU (or memory controller) reading and retiring
// one I/O buffer. It returns true on an LLC hit: the buffer was still
// resident and is freed. It returns false on a miss: the buffer was
// evicted to DRAM before the consumer reached it, so the caller must
// charge a DRAM access. A hit is charged to the buffer's home partition;
// a miss to part, the reader's own partition.
func (c *LLC) ConsumeIn(part int, id BufID) bool {
	n, ok := c.entries.Delete(id)
	if !ok {
		c.parts[part].stats.Misses++
		c.Misses++
		return false
	}
	p := &c.parts[n.part]
	p.unlink(n)
	p.occupancy -= n.size
	c.occupancy -= n.size
	p.stats.Hits++
	c.Hits++
	c.freeNode(n)
	return true
}

// Peek is PeekIn against partition 0.
func (c *LLC) Peek(id BufID) bool { return c.PeekIn(0, id) }

// PeekIn is ConsumeIn without retiring: it classifies hit/miss and
// updates counters but leaves a resident buffer in place (used by
// workloads that touch a buffer multiple times).
func (c *LLC) PeekIn(part int, id BufID) bool {
	if n, ok := c.entries.Get(id); ok {
		// Refresh recency on touch.
		p := &c.parts[n.part]
		p.unlink(n)
		p.pushFront(n)
		p.stats.Hits++
		c.Hits++
		return true
	}
	c.parts[part].stats.Misses++
	c.Misses++
	return false
}

// Probe is ProbeIn against partition 0.
func (c *LLC) Probe(id BufID) bool { return c.ProbeIn(0, id) }

// ProbeIn classifies a read as hit or miss without retiring the buffer or
// refreshing its recency. It models the use-once streaming read of a
// CPU-bypass consumer over a write-back cache: the line stays resident
// (dirty) until capacity pressure evicts it, which is how bypass traffic
// "continuously flushes the LLC" in the paper's coexistence analysis.
func (c *LLC) ProbeIn(part int, id BufID) bool {
	if n, ok := c.entries.Get(id); ok {
		c.parts[n.part].stats.Hits++
		c.Hits++
		return true
	}
	c.parts[part].stats.Misses++
	c.Misses++
	return false
}

// Drop removes a buffer without classifying it as hit or miss (used when a
// packet is dropped before any consumer touches it).
func (c *LLC) Drop(id BufID) {
	if n, ok := c.entries.Delete(id); ok {
		p := &c.parts[n.part]
		p.unlink(n)
		p.occupancy -= n.size
		c.occupancy -= n.size
		c.freeNode(n)
	}
}

// EnableQueueStats arms per-queue consume attribution for n rx queues.
func (c *LLC) EnableQueueStats(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("cache: EnableQueueStats needs a positive queue count, got %d", n))
	}
	c.queueStats = make([]QueueStats, n)
}

// AccountQueue attributes one consume-side hit or miss to rx queue q. A
// no-op when queue stats are disabled or q is out of range (legacy flows
// carry queue -1).
func (c *LLC) AccountQueue(q int, hit bool) {
	if c.queueStats == nil || q < 0 || q >= len(c.queueStats) {
		return
	}
	if hit {
		c.queueStats[q].Hits++
	} else {
		c.queueStats[q].Misses++
	}
}

// QueueStats returns a copy of rx queue q's consume-side counters (the
// zero value when queue stats are disabled or q is out of range).
func (c *LLC) QueueStats(q int) QueueStats {
	if c.queueStats == nil || q < 0 || q >= len(c.queueStats) {
		return QueueStats{}
	}
	return c.queueStats[q]
}

// MissRate returns misses/(hits+misses) over all partitions.
func (c *LLC) MissRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Misses) / float64(t)
}

// ResetStats zeroes the counters, global and per-partition (the resident
// set is untouched), so experiments can measure steady-state windows
// after warm-up.
func (c *LLC) ResetStats() {
	c.Insertions, c.Evictions, c.Hits, c.Misses = 0, 0, 0, 0
	for i := range c.parts {
		c.parts[i].stats = PartStats{}
	}
	for i := range c.queueStats {
		c.queueStats[i] = QueueStats{}
	}
}

// checkInvariants validates internal consistency; used by tests.
func (c *LLC) checkInvariants() error {
	var occSum, capSum int64
	var st PartStats
	count := 0
	seen := make(map[BufID]bool)
	for pi := range c.parts {
		p := &c.parts[pi]
		var sum int64
		pcount := 0
		for n := p.head; n != nil; n = n.next {
			if seen[n.id] {
				return fmt.Errorf("cycle or duplicate at %d", n.id)
			}
			seen[n.id] = true
			if n.part != pi {
				return fmt.Errorf("buffer %d in partition %d's list but tagged %d", n.id, pi, n.part)
			}
			sum += n.size
			pcount++
			if n.next == nil && p.tail != n {
				return fmt.Errorf("partition %d tail mismatch", pi)
			}
		}
		if sum != p.occupancy {
			return fmt.Errorf("partition %d occupancy %d != sum %d", pi, p.occupancy, sum)
		}
		if p.occupancy > p.capacity && pcount > 1 {
			return fmt.Errorf("partition %d over capacity: %d > %d", pi, p.occupancy, p.capacity)
		}
		occSum += p.occupancy
		capSum += p.capacity
		st.Insertions += p.stats.Insertions
		st.Evictions += p.stats.Evictions
		st.Hits += p.stats.Hits
		st.Misses += p.stats.Misses
		count += pcount
	}
	if occSum != c.occupancy {
		return fmt.Errorf("occupancy %d != partition sum %d", c.occupancy, occSum)
	}
	if capSum != c.capacity {
		return fmt.Errorf("capacity %d != partition sum %d", c.capacity, capSum)
	}
	if count != c.entries.Len() {
		return fmt.Errorf("lists %d != index %d", count, c.entries.Len())
	}
	if st != (PartStats{Insertions: c.Insertions, Evictions: c.Evictions, Hits: c.Hits, Misses: c.Misses}) {
		return fmt.Errorf("global counters %+v diverge from partition sums %+v",
			PartStats{Insertions: c.Insertions, Evictions: c.Evictions, Hits: c.Hits, Misses: c.Misses}, st)
	}
	return nil
}
