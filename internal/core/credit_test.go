package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCreditInitialAllocation(t *testing.T) {
	c := NewCreditController(3000)
	c.AddFlows(1)
	if got := c.Available(1); got != 3000 {
		t.Fatalf("single flow should hold all credits, got %d", got)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditEvenSplit(t *testing.T) {
	c := NewCreditController(3000)
	c.AddFlows(1, 2, 3)
	for id := 1; id <= 3; id++ {
		if got := c.Available(id); got != 1000 {
			t.Fatalf("flow %d has %d credits, want 1000", id, got)
		}
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditNewFlowTakesFromExisting(t *testing.T) {
	c := NewCreditController(3000)
	c.AddFlows(1)
	c.AddFlows(2)
	// C_flow = 1500; flow 1 had 3000 available, gives 1500.
	if c.Available(1) != 1500 || c.Available(2) != 1500 {
		t.Fatalf("split = %d/%d, want 1500/1500", c.Available(1), c.Available(2))
	}
	if c.Flow(1).InDebt() {
		t.Fatal("flow 1 should not be in debt")
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditDebtWhenCreditsInUse(t *testing.T) {
	c := NewCreditController(100)
	c.AddFlows(1)
	// Flow 1 spends 90 credits on in-flight packets.
	for i := 0; i < 90; i++ {
		if !c.Consume(c.Flow(1)) {
			t.Fatal("consume failed")
		}
	}
	c.AddFlows(2)
	// C_flow = 50. Flow 1 only has 10 available: gives 10, owes 40.
	if got := c.Available(2); got != 10 {
		t.Fatalf("flow 2 immediate credits = %d, want 10", got)
	}
	f1 := c.Flow(1)
	if !f1.InDebt() || f1.Owes[2] != 40 {
		t.Fatalf("flow 1 owes = %v, want {2:40}", f1.Owes)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// Release pays the debt before refilling flow 1.
	c.Release(c.Flow(1), 30)
	if got := c.Available(2); got != 40 {
		t.Fatalf("after partial release, flow 2 has %d, want 40", got)
	}
	if c.Available(1) != 0 {
		t.Fatalf("flow 1 should still have 0, got %d", c.Available(1))
	}
	c.Release(c.Flow(1), 60)
	if got := c.Available(2); got != 50 {
		t.Fatalf("flow 2 final = %d, want 50", got)
	}
	if got := c.Available(1); got != 50 {
		t.Fatalf("flow 1 final = %d, want 50", got)
	}
	if f1.InDebt() {
		t.Fatal("debt should be settled")
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditConsumeExhaustion(t *testing.T) {
	c := NewCreditController(10)
	c.AddFlows(1)
	for i := 0; i < 10; i++ {
		if !c.Consume(c.Flow(1)) {
			t.Fatalf("consume %d failed", i)
		}
	}
	if c.Consume(c.Flow(1)) {
		t.Fatal("consume beyond credits must fail")
	}
	if c.Rejected != 1 {
		t.Fatalf("rejected = %d", c.Rejected)
	}
	c.Release(c.Flow(1), 4)
	if c.Available(1) != 4 || c.Flow(1).InUse != 6 {
		t.Fatalf("avail=%d inuse=%d", c.Available(1), c.Flow(1).InUse)
	}
}

func TestCreditConsumeUnknownFlow(t *testing.T) {
	c := NewCreditController(10)
	if c.Consume(c.Flow(42)) {
		t.Fatal("unknown flow must not consume")
	}
}

func TestCreditReleaseOverflowPanics(t *testing.T) {
	c := NewCreditController(10)
	c.AddFlows(1)
	c.Consume(c.Flow(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Release(c.Flow(1), 2)
}

func TestCreditRemoveFlowReturnsToPool(t *testing.T) {
	c := NewCreditController(100)
	c.AddFlows(1, 2)
	f1 := c.Flow(1)
	c.Consume(f1)
	c.Consume(f1)
	c.RemoveFlow(1)
	if c.Pool() != 50 { // 48 available + 2 in use reclaimed
		t.Fatalf("pool = %d, want 50", c.Pool())
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// A straggling release from a removed flow is a no-op (its in-use
	// credits were already reclaimed at removal), through the account its
	// owner still holds as much as through a fresh lookup.
	c.Release(f1, 2)
	c.Release(c.Flow(1), 2)
	if c.Pool() != 50 {
		t.Fatalf("pool after late release = %d, want 50", c.Pool())
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditDebtToRemovedFlowGoesToPool(t *testing.T) {
	c := NewCreditController(100)
	c.AddFlows(1)
	for i := 0; i < 100; i++ {
		c.Consume(c.Flow(1))
	}
	c.AddFlows(2) // flow 1 owes 50 to flow 2
	c.RemoveFlow(2)
	c.Release(c.Flow(1), 100)
	// 50 paid to the pool (flow 2 gone), 50 back to flow 1.
	if c.Available(1) != 50 || c.Pool() != 50 {
		t.Fatalf("avail=%d pool=%d", c.Available(1), c.Pool())
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditRecycleAndGrant(t *testing.T) {
	c := NewCreditController(100)
	c.AddFlows(1, 2)
	n := c.Recycle(2)
	if n != 50 || c.Pool() != 50 {
		t.Fatalf("recycled %d, pool %d", n, c.Pool())
	}
	g := c.Grant(1, 30)
	if g != 30 || c.Available(1) != 80 {
		t.Fatalf("granted %d, avail %d", g, c.Available(1))
	}
	if g := c.Grant(1, 100); g != 20 {
		t.Fatalf("grant should cap at pool, got %d", g)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditFairShare(t *testing.T) {
	c := NewCreditController(3000)
	if c.FairShare() != 3000 {
		t.Fatal("empty controller fair share")
	}
	c.AddFlows(1, 2, 3)
	if c.FairShare() != 1000 {
		t.Fatalf("fair share = %d", c.FairShare())
	}
}

func TestCreditManyFlowsRemainder(t *testing.T) {
	c := NewCreditController(100)
	c.AddFlows(1, 2, 3) // 33 each, 1 left in pool
	sum := c.Available(1) + c.Available(2) + c.Available(3) + c.Pool()
	if sum != 100 {
		t.Fatalf("sum = %d", sum)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// Property: under random interleavings of adds, removes, consumes,
// releases, recycles and grants, credit conservation always holds.
func TestCreditConservationProperty(t *testing.T) {
	type op struct {
		Kind uint8
		Arg  uint8
	}
	f := func(ops []op) bool {
		c := NewCreditController(256)
		nextID := 1
		live := []int{}
		inUse := map[int]int{}
		pick := func(a uint8) (int, bool) {
			if len(live) == 0 {
				return 0, false
			}
			return live[int(a)%len(live)], true
		}
		for _, o := range ops {
			switch o.Kind % 7 {
			case 0: // add
				if len(live) < 16 {
					c.AddFlows(nextID)
					live = append(live, nextID)
					inUse[nextID] = 0
					nextID++
				}
			case 1: // remove
				if id, ok := pick(o.Arg); ok {
					c.RemoveFlow(id)
					for i, v := range live {
						if v == id {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
					delete(inUse, id)
				}
			case 2: // consume
				if id, ok := pick(o.Arg); ok {
					if c.Consume(c.Flow(id)) {
						inUse[id]++
					}
				}
			case 3: // release
				if id, ok := pick(o.Arg); ok && inUse[id] > 0 {
					n := 1 + int(o.Arg)%inUse[id]
					c.Release(c.Flow(id), n)
					inUse[id] -= n
				}
			case 4: // recycle
				if id, ok := pick(o.Arg); ok {
					c.Recycle(id)
				}
			case 5: // grant
				if id, ok := pick(o.Arg); ok {
					c.Grant(id, int(o.Arg))
				}
			case 6: // reclaim (reconciliation path)
				if id, ok := pick(o.Arg); ok {
					r := c.ReclaimInUse(id, int(o.Arg)%8)
					inUse[id] -= r
				}
			}
			if err := c.CheckInvariant(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
			if err := c.CheckConservation(); err != nil {
				t.Logf("conservation: %v", err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// ReclaimInUse recovers leaked in-use credits (lost release messages),
// settles debts first like a normal release, and never over-reclaims.
func TestCreditReclaimInUse(t *testing.T) {
	c := NewCreditController(100)
	c.AddFlows(1)
	for i := 0; i < 60; i++ {
		c.Consume(c.Flow(1))
	}
	// Host released 20, but the release messages were lost: InUse stays 60.
	if got := c.ReclaimInUse(1, 20); got != 20 {
		t.Fatalf("reclaimed %d, want 20", got)
	}
	if c.Available(1) != 60 || c.Flow(1).InUse != 40 {
		t.Fatalf("avail=%d inuse=%d, want 60/40", c.Available(1), c.Flow(1).InUse)
	}
	if c.Reclaimed != 20 {
		t.Fatalf("Reclaimed=%d, want 20", c.Reclaimed)
	}
	// Reclaiming more than InUse clamps.
	if got := c.ReclaimInUse(1, 100); got != 40 {
		t.Fatalf("clamped reclaim = %d, want 40", got)
	}
	if got := c.ReclaimInUse(1, 1); got != 0 {
		t.Fatalf("reclaim with nothing in use = %d, want 0", got)
	}
	if got := c.ReclaimInUse(42, 5); got != 0 {
		t.Fatalf("reclaim on unknown flow = %d, want 0", got)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// Reclaimed credits settle IOUs before refilling the flow, exactly like
// an application release would — a starved creditor flow is unblocked by
// reconciliation too.
func TestCreditReclaimSettlesDebts(t *testing.T) {
	c := NewCreditController(100)
	c.AddFlows(1)
	for i := 0; i < 100; i++ {
		c.Consume(c.Flow(1))
	}
	c.AddFlows(2) // flow 2 arrives starved: flow 1 owes it 50
	if c.Available(2) != 0 || c.Flow(1).Owes[2] != 50 {
		t.Fatalf("setup: avail2=%d owes=%v", c.Available(2), c.Flow(1).Owes)
	}
	if got := c.ReclaimInUse(1, 30); got != 30 {
		t.Fatalf("reclaimed %d, want 30", got)
	}
	if c.Available(2) != 30 {
		t.Fatalf("creditor got %d, want 30 (debt paid first)", c.Available(2))
	}
	if c.Available(1) != 0 {
		t.Fatalf("debtor kept %d while still in debt", c.Available(1))
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// A zero-credit flow (everything in use, releases lost) is starved until
// a reclaim; afterwards it can consume again — the reconciliation path
// out of starvation.
func TestCreditStarvationRecovery(t *testing.T) {
	c := NewCreditController(10)
	c.AddFlows(1)
	for i := 0; i < 10; i++ {
		c.Consume(c.Flow(1))
	}
	if c.Consume(c.Flow(1)) {
		t.Fatal("starved flow consumed")
	}
	c.ReclaimInUse(1, 10)
	if !c.Consume(c.Flow(1)) {
		t.Fatal("reclaim did not unstarve the flow")
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// Burst arrival during reconciliation: new flows joining between partial
// reclaims keep the pool and ledger consistent.
func TestCreditBurstArrivalDuringReclaim(t *testing.T) {
	c := NewCreditController(256)
	c.AddFlows(1, 2)
	for i := 0; i < 100; i++ {
		c.Consume(c.Flow(1))
	}
	c.ReclaimInUse(1, 40)
	c.AddFlows(3, 4, 5, 6) // burst joins mid-reconciliation
	c.ReclaimInUse(1, 60)
	for _, id := range []int{3, 4, 5, 6} {
		c.Release(c.Flow(id), c.Flow(id).InUse) // no-ops; keep the API exercised
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if c.Reclaimed != 100 {
		t.Fatalf("Reclaimed=%d, want 100", c.Reclaimed)
	}
}

// The lifetime ledger holds across removals too: in-use credits of a
// removed flow count as reclaimed, and straggling releases stay no-ops.
func TestCreditConservationLedgerAcrossRemoval(t *testing.T) {
	c := NewCreditController(100)
	c.AddFlows(1, 2)
	f1 := c.Flow(1)
	for i := 0; i < 30; i++ {
		c.Consume(f1)
	}
	c.Release(f1, 10)
	c.RemoveFlow(1) // 20 still in use -> Reclaimed
	c.Release(f1, 20)
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if c.Reclaimed != 20 {
		t.Fatalf("Reclaimed=%d, want 20", c.Reclaimed)
	}
}

// Burst arrival of many flows at once (Fig. 12 regime) stays consistent.
func TestCreditMassArrival(t *testing.T) {
	c := NewCreditController(3072)
	ids := make([]int, 1024)
	for i := range ids {
		ids[i] = i + 1
	}
	c.AddFlows(ids...)
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if c.Available(1) != 3 || c.Available(1024) != 3 {
		t.Fatalf("per-flow = %d/%d, want 3", c.Available(1), c.Available(1024))
	}
}

// A flow removed and re-added under the same ID gets a fresh account. The
// old account, still held by the torn-down flow's state, must neither
// refund into the new one nor hand out credits.
func TestCreditStaleAccountAfterReAdd(t *testing.T) {
	c := NewCreditController(100)
	c.AddFlows(1, 2)
	old := c.Flow(1)
	for i := 0; i < 10; i++ {
		c.Consume(old)
	}
	c.RemoveFlow(1)
	c.AddFlows(1)
	fresh := c.Flow(1)
	if fresh == old {
		t.Fatal("re-added flow reuses the removed account")
	}
	c.Consume(fresh)
	avail, inUse := fresh.Available, fresh.InUse
	c.Release(old, 10)
	if fresh.Available != avail || fresh.InUse != inUse {
		t.Fatalf("stale release moved the new account: avail %d->%d inuse %d->%d",
			avail, fresh.Available, inUse, fresh.InUse)
	}
	if c.Consume(old) {
		t.Fatal("removed account handed out a credit")
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
