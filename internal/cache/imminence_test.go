package cache

import (
	"testing"
	"testing/quick"
)

// TestImminentInDistanceIncludesFreeCapacity pins the eviction-distance
// definition RDCA's window controller relies on: a buffer is imminent
// only once the partition's free capacity plus the resident bytes below
// it in LRU order fall inside the threshold. A half-empty partition
// reports nothing — inserts that fit evict no one.
func TestImminentInDistanceIncludesFreeCapacity(t *testing.T) {
	c := newIDLLC(1000)
	c.InsertIO(1, 300) // LRU tail after the next insert
	c.InsertIO(2, 300) // MRU; 400 bytes free
	if got := c.ImminentIn(0, 400, nil); got != 0 {
		t.Fatalf("threshold 400 over 400 free bytes: imminent = %d, want 0", got)
	}
	if got := c.ImminentIn(0, 500, nil); got != 1 {
		t.Fatalf("threshold 500: imminent = %d, want 1 (the tail buffer)", got)
	}
	if got := c.ImminentIn(0, 1200, nil); got != 2 {
		t.Fatalf("threshold 1200: imminent = %d, want 2", got)
	}
	// pred filters the count to tagged buffers only.
	only2 := func(id BufID) bool { return id == 2 }
	if got := c.ImminentIn(0, 1200, only2); got != 1 {
		t.Fatalf("threshold 1200 with pred: imminent = %d, want 1", got)
	}
}

// TestImminentInEdgeCases: zero/negative thresholds and empty
// partitions report nothing.
func TestImminentInEdgeCases(t *testing.T) {
	c := newIDLLC(1000)
	if got := c.ImminentIn(0, 0, nil); got != 0 {
		t.Fatalf("zero threshold: %d, want 0", got)
	}
	if got := c.ImminentIn(0, 500, nil); got != 0 {
		t.Fatalf("empty partition: %d, want 0", got)
	}
	c.InsertIO(1, 100)
	if got := c.ImminentIn(0, -1, nil); got != 0 {
		t.Fatalf("negative threshold: %d, want 0", got)
	}
}

// TestRecycledBufferNoMissOnRefill is the RDCA recycling property: a
// buffer returned to the NIC free list via Drop (the aggressive-recycle
// demotion) and later re-filled by a fresh DDIO insert is a clean
// insert-then-hit — the recycle itself never shows up as a miss, and
// neither does the re-fill. Under any interleaving of fill / recycle /
// consume where reads only target resident buffers and nothing is
// capacity-evicted, the miss counter stays exactly zero.
func TestRecycledBufferNoMissOnRefill(t *testing.T) {
	type op struct {
		Kind uint8 // %3: 0 = fill, 1 = recycle (Drop), 2 = consume
		ID   uint8 // %8: buffer identity, reused across rounds
	}
	f := func(ops []op) bool {
		// 8 ids × 64B each fits a 1KB region: no capacity evictions, so
		// every miss would have to come from Drop/re-fill accounting.
		c := newIDLLC(1024)
		resident := map[BufID]bool{}
		for _, o := range ops {
			id := BufID(o.ID % 8)
			switch o.Kind % 3 {
			case 0:
				c.InsertIO(id, 64)
				resident[id] = true
			case 1:
				c.Drop(id)
				delete(resident, id)
			case 2:
				if !resident[id] {
					continue // reads target in-flight (resident) buffers only
				}
				if !c.Consume(id) {
					t.Logf("consume of resident buffer %d missed", id)
					return false
				}
				delete(resident, id) // consume retires the line
			}
			if err := c.checkInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return c.Misses == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
