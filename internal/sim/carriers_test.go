package sim

import "testing"

// TestCarriersRecycleZeroed pins the free-list contract: Put drops a
// carrier's references, Get hands the same carrier back zeroed, and a
// warm get/put cycle allocates nothing.
func TestCarriersRecycleZeroed(t *testing.T) {
	type job struct {
		fn  func(any)
		arg any
		n   int
	}
	var c Carriers[job]
	j := c.Get()
	j.fn, j.arg, j.n = func(any) {}, new(int), 7
	c.Put(j)
	if got := c.Get(); got != j || got.fn != nil || got.arg != nil || got.n != 0 {
		t.Fatalf("recycled carrier = %p %+v, want %p zeroed", got, *got, j)
	}
	c.Put(j)
	if avg := testing.AllocsPerRun(1000, func() { c.Put(c.Get()) }); avg != 0 {
		t.Fatalf("warm get/put allocates %.2f objects per cycle, want 0", avg)
	}
}
