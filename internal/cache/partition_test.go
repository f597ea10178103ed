package cache

import (
	"math/rand"
	"testing"
)

// TestPartitionBasics exercises partitioned insert/consume against fixed
// expectations: inserts land in their own partitions, a full partition
// evicts only its own lines, and untouched partitions keep theirs.
func TestPartitionBasics(t *testing.T) {
	c := newIDLLC(300)
	if err := c.Partition([]int64{100, 200}); err != nil {
		t.Fatal(err)
	}
	if c.Partitions() != 2 || c.PartCapacity(0) != 100 || c.PartCapacity(1) != 200 {
		t.Fatalf("partition geometry wrong: n=%d caps=%d/%d", c.Partitions(), c.PartCapacity(0), c.PartCapacity(1))
	}
	c.InsertIOIn(0, 1, 60)
	c.InsertIOIn(1, 2, 150)
	// Overflows partition 0 only: buffer 1 is its LRU victim, buffer 2 in
	// partition 1 must survive.
	ev := c.InsertIOIn(0, 3, 60)
	if len(ev) != 1 || ev[0].ID != 1 {
		t.Fatalf("expected partition-local eviction of buffer 1, got %v", ev)
	}
	if !c.Resident(2) || !c.Resident(3) {
		t.Fatal("cross-partition eviction: survivor set wrong")
	}
	if c.PartOccupancy(0) != 60 || c.PartOccupancy(1) != 150 || c.Occupancy() != 210 {
		t.Fatalf("occupancies wrong: %d/%d total %d", c.PartOccupancy(0), c.PartOccupancy(1), c.Occupancy())
	}
	// Hit charged to the buffer's home partition; miss to the reader's.
	if !c.ConsumeIn(0, 3) {
		t.Fatal("expected hit on resident buffer 3")
	}
	if c.ConsumeIn(0, 1) {
		t.Fatal("expected miss on evicted buffer 1")
	}
	st0, st1 := c.PartStats(0), c.PartStats(1)
	if st0.Hits != 1 || st0.Misses != 1 || st0.Evictions != 1 || st1.Hits != 0 || st1.Misses != 0 {
		t.Fatalf("per-partition stats wrong: p0=%+v p1=%+v", st0, st1)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionRejections pins the setup-time error paths.
func TestPartitionRejections(t *testing.T) {
	c := newIDLLC(100)
	if err := c.Partition([]int64{50, 40}); err == nil {
		t.Fatal("capacity sum mismatch accepted")
	}
	if err := c.Partition(nil); err == nil {
		t.Fatal("zero partitions accepted")
	}
	if err := c.Partition([]int64{150, -50}); err == nil {
		t.Fatal("negative capacity accepted")
	}
	c.InsertIO(1, 10)
	if err := c.Partition([]int64{50, 50}); err == nil {
		t.Fatal("partitioning a non-empty cache accepted")
	}
}

// TestMoveCapacityEvicts verifies that shrinking a partition flushes the
// lines it can no longer hold, LRU first, and conserves total capacity.
func TestMoveCapacityEvicts(t *testing.T) {
	c := newIDLLC(400)
	if err := c.Partition([]int64{200, 200}); err != nil {
		t.Fatal(err)
	}
	for id := BufID(1); id <= 4; id++ {
		c.InsertIOIn(0, id, 50) // fills partition 0 exactly
	}
	ev := c.MoveCapacity(0, 1, 100)
	if len(ev) != 2 || ev[0].ID != 1 || ev[1].ID != 2 {
		t.Fatalf("expected LRU eviction of buffers 1,2 on shrink, got %v", ev)
	}
	if c.PartCapacity(0) != 100 || c.PartCapacity(1) != 300 {
		t.Fatalf("capacities after move: %d/%d", c.PartCapacity(0), c.PartCapacity(1))
	}
	if c.PartCapacity(0)+c.PartCapacity(1) != c.Capacity() {
		t.Fatal("total capacity not conserved")
	}
	// Shrinking to zero flushes everything in the partition.
	ev = c.MoveCapacity(0, 1, 100)
	if len(ev) != 2 || c.PartOccupancy(0) != 0 {
		t.Fatalf("shrink-to-zero left occupancy %d (evicted %v)", c.PartOccupancy(0), ev)
	}
	// A zero-capacity partition bypasses inserts instead of panicking.
	ev = c.InsertIOIn(0, 9, 50)
	if len(ev) != 1 || ev[0].ID != 9 || c.Resident(9) {
		t.Fatalf("insert into zero-way partition should bypass, got %v", ev)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionOccupancySumProperty is the randomized property test: over
// arbitrary interleavings of partitioned inserts, consumes, peeks, drops,
// and capacity moves, the per-partition occupancies must always sum to
// the global occupancy, capacities must always sum to the region total,
// and every structural invariant must hold after every operation.
func TestPartitionOccupancySumProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nParts := 2 + rng.Intn(4)
		unit := int64(256)
		total := unit * int64(nParts) * 8
		c := newIDLLC(total)
		caps := make([]int64, nParts)
		left := total
		for i := 0; i < nParts-1; i++ {
			caps[i] = unit * int64(1+rng.Intn(8))
			if caps[i] > left-unit*int64(nParts-1-i) {
				caps[i] = unit
			}
			left -= caps[i]
		}
		caps[nParts-1] = left
		if err := c.Partition(caps); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		next := BufID(0)
		live := []BufID{}
		for op := 0; op < 4000; op++ {
			part := rng.Intn(nParts)
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // insert
				next++
				size := int64(64 * (1 + rng.Intn(40)))
				for _, ev := range c.InsertIOIn(part, next, size) {
					for i, id := range live {
						if id == ev.ID {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
				if c.Resident(next) {
					live = append(live, next)
				}
			case 4, 5: // consume (random live or random stale id)
				if len(live) > 0 && rng.Intn(2) == 0 {
					i := rng.Intn(len(live))
					c.ConsumeIn(part, live[i])
					live = append(live[:i], live[i+1:]...)
				} else {
					c.ConsumeIn(part, BufID(rng.Int63n(int64(next)+1)))
				}
			case 6: // peek/probe
				if len(live) > 0 {
					c.PeekIn(part, live[rng.Intn(len(live))])
				} else {
					c.ProbeIn(part, next+1)
				}
			case 7: // drop
				if len(live) > 0 {
					i := rng.Intn(len(live))
					c.Drop(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 8, 9: // repartition: move capacity between random partitions
				from := rng.Intn(nParts)
				to := rng.Intn(nParts)
				if from == to || c.PartCapacity(from) == 0 {
					continue
				}
				bytes := int64(64 * (1 + rng.Intn(16)))
				if bytes > c.PartCapacity(from) {
					bytes = c.PartCapacity(from)
				}
				for _, ev := range c.MoveCapacity(from, to, bytes) {
					for i, id := range live {
						if id == ev.ID {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
			}

			if err := c.checkInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			var occ, capSum int64
			for i := 0; i < c.Partitions(); i++ {
				occ += c.PartOccupancy(i)
				capSum += c.PartCapacity(i)
			}
			if occ != c.Occupancy() {
				t.Fatalf("seed %d op %d: partition occupancies sum to %d, global %d", seed, op, occ, c.Occupancy())
			}
			if capSum != c.Capacity() {
				t.Fatalf("seed %d op %d: partition capacities sum to %d, total %d", seed, op, capSum, c.Capacity())
			}
		}
	}
}

// TestSinglePartitionMatchesLegacy replays a randomized legacy-API
// workload against an explicit 1-partition cache and requires identical
// behavior — the guarantee that partitioning the code path did not
// perturb unpartitioned machines.
func TestSinglePartitionMatchesLegacy(t *testing.T) {
	run := func(c *idLLC) (sig []int64) {
		rng := rand.New(rand.NewSource(42))
		for op := 0; op < 3000; op++ {
			id := BufID(rng.Int63n(200))
			switch rng.Intn(4) {
			case 0, 1:
				for _, ev := range c.InsertIO(id, int64(64*(1+rng.Intn(40)))) {
					sig = append(sig, int64(ev.ID))
				}
			case 2:
				if c.Consume(id) {
					sig = append(sig, -1)
				}
			case 3:
				c.Probe(id)
			}
		}
		sig = append(sig, c.Occupancy(), int64(c.Hits), int64(c.Misses), int64(c.Evictions), int64(c.Insertions))
		return sig
	}
	a := run(newIDLLC(64 << 10))
	explicit := newIDLLC(64 << 10)
	if err := explicit.Partition([]int64{64 << 10}); err != nil {
		t.Fatal(err)
	}
	b := run(explicit)
	if len(a) != len(b) {
		t.Fatalf("event streams diverge in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d diverges: %d vs %d", i, a[i], b[i])
		}
	}
}
