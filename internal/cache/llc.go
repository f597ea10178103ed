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

import (
	"fmt"
	"math"
)

// BufID identifies one I/O buffer in flight through the hierarchy. The
// LLC keeps it in the buffer's LRU node only to name the buffer in
// eviction reports; residency is asked through a Ref.
type BufID uint64

// Ref is the handle to one buffer's LRU node, held by the buffer's owner
// (a packet descriptor, a dataplane module's line table). A node's
// generation bumps every time it is freed, so a Ref outlives its line
// safely: once the line is consumed, dropped or evicted, the Ref reads
// as not resident, even after the node is reused for another buffer. The
// zero Ref is never resident. Generations are 32 bits: a stale Ref
// could alias only after one slab slot was reused 2^32 times.
type Ref struct {
	idx int32 // slab index; slot 0 is never allocated
	gen uint32
}

// node is an intrusive doubly-linked LRU list node in the LLC's slab.
// Links are slab indexes (0 = none), so the slab holds no pointers and
// the garbage collector never scans it.
type node struct {
	id         BufID
	size       int32 // cache footprint
	payload    int32 // dirty bytes a write-back of this line costs
	part       int32
	prev, next int32
	gen        uint32
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
	head      int32 // most recently inserted/touched (0 = empty)
	tail      int32 // least recently used: next eviction victim
	stats     PartStats
}

// LLC models the DDIO-accessible region of the last-level cache as an
// LRU-ordered set of resident I/O buffers with a byte-capacity bound.
// The region can be carved into way-granular partitions (CAT-style cache
// allocation for multi-tenant isolation); each partition runs its own LRU
// replacement, and the per-partition occupancies always sum to the
// region's total occupancy.
//
// The LLC has no index by buffer ID. Every insert hands the owner a Ref
// to the buffer's node, and every later read, drop or refresh goes
// through that Ref, so no per-packet path probes a table.
type LLC struct {
	capacity  int64
	occupancy int64

	// nodes is the LRU node slab; nodes[0] is the "none" sentinel. Freed
	// nodes chain through next from free and are reused before the slab
	// grows, so the steady-state insert/evict/consume churn of the DMA
	// path does not allocate.
	nodes []node
	free  int32
	live  int // resident buffers

	parts []partition

	// queueStats, when enabled, attributes consume-side hits/misses to rx
	// queues (one slot per simulated core); nil on single-core machines.
	queueStats []QueueStats

	// onEvict, if set, is invoked for each buffer evicted to DRAM.
	onEvict func(BufID)

	// evictScratch backs the eviction list InsertIOSized returns; the
	// slice is reused on the next insert, which is safe because every
	// caller consumes it before touching the cache again.
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
		nodes:    make([]node, 1),
		parts:    []partition{{capacity: capacityBytes}},
	}
}

// SetEvictHandler registers a callback invoked for every eviction.
func (c *LLC) SetEvictHandler(fn func(BufID)) { c.onEvict = fn }

// Capacity returns the DDIO-region size in bytes.
func (c *LLC) Capacity() int64 { return c.capacity }

// Occupancy returns the bytes currently resident across all partitions.
func (c *LLC) Occupancy() int64 { return c.occupancy }

// node returns r's node, or nil when r is not resident (zero, or its
// line was freed since r was issued).
func (c *LLC) node(r Ref) *node {
	if r.idx == 0 {
		return nil
	}
	n := &c.nodes[r.idx]
	if n.gen != r.gen {
		return nil
	}
	return n
}

// Resident reports whether r's buffer is currently cached.
func (c *LLC) Resident(r Ref) bool { return c.node(r) != nil }

// Len returns the number of resident buffers.
func (c *LLC) Len() int { return c.live }

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
	if c.live != 0 {
		return fmt.Errorf("cache: partitioning a non-empty LLC (%d resident buffers)", c.live)
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
	for src.occupancy > src.capacity && src.tail != 0 {
		evicted = c.evict(src, src.tail, evicted)
	}
	return evicted
}

// alloc takes a node off the free list (growing the slab when it is
// empty), fills it, and returns its index.
func (c *LLC) alloc(id BufID, size, payload int64, part int) int32 {
	i := c.free
	if i == 0 {
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, node{})
	} else {
		c.free = c.nodes[i].next
	}
	n := &c.nodes[i]
	*n = node{id: id, size: int32(size), payload: int32(payload), part: int32(part), gen: n.gen}
	c.live++
	return i
}

// release returns node i to the free list. Bumping its generation is
// what turns every Ref to it stale.
func (c *LLC) release(i int32) {
	n := &c.nodes[i]
	*n = node{next: c.free, gen: n.gen + 1}
	c.free = i
	c.live--
}

func (c *LLC) pushFront(p *partition, i int32) {
	n := &c.nodes[i]
	n.prev = 0
	n.next = p.head
	if p.head != 0 {
		c.nodes[p.head].prev = i
	}
	p.head = i
	if p.tail == 0 {
		p.tail = i
	}
}

func (c *LLC) unlink(p *partition, i int32) {
	n := &c.nodes[i]
	if n.prev != 0 {
		c.nodes[n.prev].next = n.next
	} else {
		p.head = n.next
	}
	if n.next != 0 {
		c.nodes[n.next].prev = n.prev
	} else {
		p.tail = n.prev
	}
	n.prev, n.next = 0, 0
}

// evict pushes node i out of partition p to DRAM, appending it to
// evicted and firing the eviction handler.
func (c *LLC) evict(p *partition, i int32, evicted []Evicted) []Evicted {
	c.unlink(p, i)
	n := &c.nodes[i]
	p.occupancy -= int64(n.size)
	c.occupancy -= int64(n.size)
	p.stats.Evictions++
	c.Evictions++
	id := n.id
	evicted = append(evicted, Evicted{ID: id, Payload: int64(n.payload)})
	c.release(i)
	if c.onEvict != nil {
		c.onEvict(id)
	}
	return evicted
}

// fill evicts partition p's LRU victims until it is back within
// capacity, sparing the just-filled node i when it is the only line
// left.
func (c *LLC) fill(p *partition, i int32, evicted []Evicted) []Evicted {
	for p.occupancy > p.capacity && p.tail != 0 {
		if p.tail == i && c.nodes[i].prev == 0 {
			// The just-inserted buffer is the only one in its partition;
			// keep it resident even over capacity.
			break
		}
		evicted = c.evict(p, p.tail, evicted)
	}
	return evicted
}

// checkSize panics on a non-positive footprint or one the 32-bit node
// field cannot hold.
func checkSize(what string, size int64) {
	if size <= 0 || size > math.MaxInt32 {
		panic(fmt.Sprintf("cache: %s of size %d outside (0, 2^31)", what, size))
	}
}

// InsertIOSized models a DDIO write of one I/O buffer into partition
// part. size is the cache footprint the buffer occupies (the pooled
// buffer granularity); payload is the dirty bytes a later eviction must
// write back (the packet payload), carried inside the LRU node so no
// side table is needed. If the partition is full, its
// least-recently-used buffers are evicted to DRAM until the new buffer
// fits ("subsequent packets overwrite earlier ones", §2.2). The evicted
// buffers are returned with their payloads (the eviction handler also
// fires).
//
// ref is the owner's handle: when it names a resident buffer, the buffer
// refreshes to MRU within its home partition; otherwise a new line is
// filled and *ref set to it. id names the buffer in eviction reports.
//
// The returned slice is valid only until the next insert: it is backed by
// a scratch buffer reused across calls, so callers must consume it before
// re-entering the cache (every datapath caller does so synchronously).
func (c *LLC) InsertIOSized(part int, ref *Ref, id BufID, size, payload int64) (evicted []Evicted) {
	checkSize("insert", size)
	if payload < 0 || payload > math.MaxInt32 {
		panic(fmt.Sprintf("cache: insert payload %d outside [0, 2^31)", payload))
	}
	p := &c.parts[part]
	evicted = c.evictScratch[:0]
	if size > p.capacity {
		// A buffer that can never fit bypasses the cache entirely (this
		// also covers a partition shrunk to zero ways). The miss is NOT
		// counted here: the consumer's later read through the
		// non-resident Ref charges it exactly once, at read time.
		if c.onEvict != nil {
			c.onEvict(id)
		}
		evicted = append(evicted, Evicted{ID: id, Payload: payload})
		c.evictScratch = evicted
		return evicted
	}
	i := ref.idx
	if n := c.node(*ref); n != nil {
		// Refresh within the buffer's home partition (a buffer belongs to
		// one flow, and a flow's partition is fixed for its lifetime).
		p = &c.parts[n.part]
		p.occupancy += size - int64(n.size)
		c.occupancy += size - int64(n.size)
		n.size = int32(size)
		n.payload = int32(payload)
		c.unlink(p, i)
		c.pushFront(p, i)
	} else {
		i = c.alloc(id, size, payload, part)
		*ref = Ref{idx: i, gen: c.nodes[i].gen}
		c.pushFront(p, i)
		p.occupancy += size
		c.occupancy += size
		p.stats.Insertions++
		c.Insertions++
	}
	evicted = c.fill(p, i, evicted)
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
	for i := p.tail; i != 0 && dist < thresholdBytes; i = c.nodes[i].prev {
		n := &c.nodes[i]
		if pred == nil || pred(n.id) {
			count++
		}
		dist += int64(n.size)
	}
	return count
}

// TouchState models a CPU access to one cache line of dataplane module
// state (NAT tables, firewall connection entries, UPF sessions; see
// internal/dataplane) living in the same LLC region the DDIO writes
// land in. A resident line (*ref names it) refreshes to MRU and reports
// a hit. A miss fills the line into partition part, sets *ref to it —
// evicting LRU victims exactly like a DDIO insert, which is how a heavy
// pipeline's working set pushes I/O buffers out and inflates the I/O
// miss rate — and reports the victims. Unlike InsertIOSized/ConsumeIn,
// TouchState does NOT bump the LLC's Insertions/Hits/Misses counters:
// those count the I/O path (DDIO writes and packet reads), and the
// paper's miss-ratio series must keep meaning that. Callers (the
// dataplane engine) keep their own per-module hit/miss counters.
// Eviction counters and the eviction handler fire normally, since a line
// leaving the region is a real eviction whatever displaced it.
//
// The returned slice shares the insert scratch buffer: consume it
// before re-entering the cache. A line wider than the partition (a
// zero-way carve) bypasses the cache: miss, nothing inserted.
func (c *LLC) TouchState(part int, ref *Ref, id BufID, size int64) (hit bool, evicted []Evicted) {
	checkSize("state touch", size)
	if n := c.node(*ref); n != nil {
		p := &c.parts[n.part]
		c.unlink(p, ref.idx)
		c.pushFront(p, ref.idx)
		return true, nil
	}
	p := &c.parts[part]
	if size > p.capacity {
		return false, nil
	}
	i := c.alloc(id, size, size, part)
	*ref = Ref{idx: i, gen: c.nodes[i].gen}
	c.pushFront(p, i)
	p.occupancy += size
	c.occupancy += size
	evicted = c.fill(p, i, c.evictScratch[:0])
	c.evictScratch = evicted
	return false, evicted
}

// remove unlinks resident node n (index i) from its partition and frees
// it, returning the partition it lived in.
func (c *LLC) remove(i int32, n *node) *partition {
	p := &c.parts[n.part]
	c.unlink(p, i)
	p.occupancy -= int64(n.size)
	c.occupancy -= int64(n.size)
	c.release(i)
	return p
}

// ConsumeIn models the CPU (or memory controller) reading and retiring
// r's I/O buffer. It returns true on an LLC hit: the buffer was still
// resident and is freed. It returns false on a miss: the buffer was
// evicted to DRAM before the consumer reached it, so the caller must
// charge a DRAM access. A hit is charged to the buffer's home partition;
// a miss to part, the reader's own partition.
func (c *LLC) ConsumeIn(part int, r Ref) bool {
	n := c.node(r)
	if n == nil {
		c.parts[part].stats.Misses++
		c.Misses++
		return false
	}
	c.remove(r.idx, n).stats.Hits++
	c.Hits++
	return true
}

// PeekIn is ConsumeIn without retiring: it classifies hit/miss and
// updates counters but leaves a resident buffer in place, refreshed to
// MRU (used by workloads that touch a buffer multiple times).
func (c *LLC) PeekIn(part int, r Ref) bool {
	if n := c.node(r); n != nil {
		p := &c.parts[n.part]
		c.unlink(p, r.idx)
		c.pushFront(p, r.idx)
		p.stats.Hits++
		c.Hits++
		return true
	}
	c.parts[part].stats.Misses++
	c.Misses++
	return false
}

// ProbeIn classifies a read as hit or miss without retiring the buffer or
// refreshing its recency. It models the use-once streaming read of a
// CPU-bypass consumer over a write-back cache: the line stays resident
// (dirty) until capacity pressure evicts it, which is how bypass traffic
// "continuously flushes the LLC" in the paper's coexistence analysis.
func (c *LLC) ProbeIn(part int, r Ref) bool {
	if n := c.node(r); n != nil {
		c.parts[n.part].stats.Hits++
		c.Hits++
		return true
	}
	c.parts[part].stats.Misses++
	c.Misses++
	return false
}

// Drop removes r's buffer without classifying it as hit or miss (used
// when a packet is dropped before any consumer touches it). A no-op when
// r is not resident.
func (c *LLC) Drop(r Ref) {
	if n := c.node(r); n != nil {
		c.remove(r.idx, n)
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

// checkInvariants validates internal consistency; used by tests. Every
// slab node past the sentinel is on exactly one partition list or on the
// free list.
func (c *LLC) checkInvariants() error {
	var occSum, capSum int64
	var st PartStats
	count := 0
	seen := make([]bool, len(c.nodes))
	for pi := range c.parts {
		p := &c.parts[pi]
		var sum int64
		pcount := 0
		var prev int32
		for i := p.head; i != 0; i = c.nodes[i].next {
			n := &c.nodes[i]
			if seen[i] {
				return fmt.Errorf("cycle or duplicate at node %d (buffer %d)", i, n.id)
			}
			seen[i] = true
			if n.prev != prev {
				return fmt.Errorf("node %d (buffer %d) prev %d, want %d", i, n.id, n.prev, prev)
			}
			prev = i
			if int(n.part) != pi {
				return fmt.Errorf("buffer %d in partition %d's list but tagged %d", n.id, pi, n.part)
			}
			if n.size <= 0 {
				return fmt.Errorf("buffer %d has non-positive size %d", n.id, n.size)
			}
			sum += int64(n.size)
			pcount++
		}
		if p.tail != prev {
			return fmt.Errorf("partition %d tail %d, list ends at %d", pi, p.tail, prev)
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
	if count != c.live {
		return fmt.Errorf("lists hold %d buffers, live count %d", count, c.live)
	}
	free := 0
	for i := c.free; i != 0; i = c.nodes[i].next {
		if seen[i] {
			return fmt.Errorf("node %d both free and listed (or free-list cycle)", i)
		}
		seen[i] = true
		free++
	}
	if count+free != len(c.nodes)-1 {
		return fmt.Errorf("slab of %d nodes: %d listed + %d free", len(c.nodes)-1, count, free)
	}
	if st != (PartStats{Insertions: c.Insertions, Evictions: c.Evictions, Hits: c.Hits, Misses: c.Misses}) {
		return fmt.Errorf("global counters %+v diverge from partition sums %+v",
			PartStats{Insertions: c.Insertions, Evictions: c.Evictions, Hits: c.Hits, Misses: c.Misses}, st)
	}
	return nil
}
