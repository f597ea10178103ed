package flowsteer

import (
	"sort"
	"testing"
)

func TestTableLifecycle(t *testing.T) {
	tb := NewTable()
	if tb.Lookup(tb.Rule(1), 100) != ActionFastPath {
		t.Fatal("default should be fast path")
	}
	if tb.MissCount != 1 {
		t.Fatal("default lookup should count a miss")
	}
	tb.Install(1, ActionFastPath)
	if a := tb.Lookup(tb.Rule(1), 100); a != ActionFastPath {
		t.Fatalf("action = %v", a)
	}
	r := tb.Rule(1)
	if r.Hits != 1 || r.HitBytes != 100 {
		t.Fatalf("hits=%d bytes=%d", r.Hits, r.HitBytes)
	}
	tb.Set(r, ActionSlowPath)
	if a := tb.Lookup(tb.Rule(1), 50); a != ActionSlowPath {
		t.Fatalf("action after update = %v", a)
	}
	if tb.Updates != 1 {
		t.Fatalf("updates = %d", tb.Updates)
	}
	// Setting the same action is a no-op update.
	tb.Set(r, ActionSlowPath)
	if tb.Updates != 1 {
		t.Fatal("idempotent Set should not count")
	}
	tb.Uninstall(1)
	if tb.Len() != 0 || tb.Rule(1) != nil {
		t.Fatal("uninstall failed")
	}
	if tb.Lookup(tb.Rule(1), 10) != tb.Default || tb.MissCount != 2 {
		t.Fatal("lookup after uninstall should miss to the default action")
	}
}

func TestTableFlowIDs(t *testing.T) {
	tb := NewTable()
	for _, id := range []int{5, 2, 9} {
		tb.Install(id, ActionFastPath)
	}
	ids := tb.FlowIDs()
	sort.Ints(ids)
	if len(ids) != 3 || ids[0] != 2 || ids[2] != 9 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestActionDoesNotCountHit(t *testing.T) {
	tb := NewTable()
	tb.Install(3, ActionSlowPath)
	if tb.Action(3) != ActionSlowPath {
		t.Fatal("wrong action")
	}
	if tb.Rule(3).Hits != 0 {
		t.Fatal("Action must not count hits")
	}
	if tb.Action(99) != ActionFastPath {
		t.Fatal("absent flow should report default")
	}
}

func TestActionString(t *testing.T) {
	if ActionFastPath.String() != "fast" || ActionSlowPath.String() != "slow" || ActionDrop.String() != "drop" {
		t.Fatal("action strings")
	}
}
