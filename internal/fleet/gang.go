package fleet

import (
	"cmp"
	"runtime"
	"slices"
	"sync/atomic"

	"ceio/internal/runner"
	"ceio/internal/sim"
)

// Gang stepping. An epoch is one fabric propagation delay of simulated
// time, a few hundred microseconds of host time for a 16-host rack, so
// handing every shard to the pool afresh each epoch costs more than the
// parallelism returns: each hand-off parks and wakes a goroutine, and
// each shard lands on whichever worker is free, cold in that core's
// caches. Instead RunFor leases its helpers from the pool once, and every
// worker — the caller included — owns a group of shards for many epochs.
// Each epoch a worker claims and steps its own group front to back, then
// claims whatever is still unclaimed in the other groups, back to front:
// a worker the OS has descheduled holds up at most the one shard it is
// stepping. Between epochs the workers wait on atomic counters, spinning
// for a bounded number of polls before they park, so the serial barrier
// is crossed without a scheduler round trip in the common case. Groups
// are rebuilt every regroupEpochs epochs from each shard's recent event
// count (never from wall time). Shards share nothing within an epoch and
// the barrier orders cross-shard frames canonically, so no grouping, no
// claim and no lease outcome can change a modelled output.

const (
	// regroupEpochs is the number of epochs between rebuilds of the shard
	// groups.
	regroupEpochs = 100
	// spinPolls bounds how often a waiting worker polls its counter
	// before it parks: about 50 µs on a 2.1 GHz Xeon, enough to span a
	// 16-host barrier plus one shard's step, short enough to give a
	// contended CPU back soon.
	spinPolls = 1 << 14
	// leaseTries bounds the attempts to lease each helper: a worker that
	// finished the previous RunFor may still be on its way back to the
	// pool.
	leaseTries = 4
)

// parker lets one goroutine wait for an atomic counter to reach a value:
// it spins first, then parks until a goroutine that advanced the counter
// calls wake.
type parker struct {
	parked atomic.Bool
	tok    chan struct{} // capacity 1: the token of the waker that cleared parked
}

// await returns once c >= v.
func (p *parker) await(c *atomic.Uint64, v uint64) {
	for c.Load() < v {
		for i := 1; i <= spinPolls; i++ {
			if c.Load() >= v {
				return
			}
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
		// Publish parked before the last check: a waker that advances c
		// afterwards sees the flag and sends a token.
		p.parked.Store(true)
		if c.Load() >= v && p.parked.CompareAndSwap(true, false) {
			return
		}
		<-p.tok
	}
}

// wake unparks the waiter, if it is parked. Call after advancing the
// counter it awaits.
func (p *parker) wake() {
	if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
		p.tok <- struct{}{}
	}
}

// gang steps the rack's shards to each epoch barrier. Without leased
// helpers it steps them serially on the caller, in index order.
type gang struct {
	shards []*sim.Engine           // host engines in index order, then the control engine
	claims []atomic.Uint64         // per shard: the last generation that claimed it
	groups atomic.Pointer[[][]int] // shard indices per worker; [0] is the caller's

	// Regrouping state, caller-owned.
	marks        []uint64 // each shard's Processed at the last regroup
	load         []uint64 // each shard's events over the last regroup window, plus one
	byLoad       []int    // shard indices, heaviest first
	sinceRegroup int

	helpers  []*helper
	active   []*helper // helpers leased for the current RunFor
	coord    parker
	gen      atomic.Uint64 // bumped by the caller to start an epoch, or to stop
	stop     atomic.Bool   // set before the releasing generation bump
	finished atomic.Uint64 // shards stepped, over the rack's life
	exited   atomic.Uint64 // helpers that have left the gang, over its life
	target   uint64        // finished once the current epoch is complete
	exits    uint64        // exited once every leased helper has left
	until    sim.Time      // the current epoch's barrier

	leased uint64 // helpers leased over the rack's life
}

// helper is one leased pool worker's side of the gang.
type helper struct {
	g        *gang
	group    int
	seen     uint64 // last generation this helper worked
	park     parker
	loop     func() // h.run, bound once so a lease allocates nothing
	panicked any
}

func newGang(shards []*sim.Engine) *gang {
	g := &gang{
		shards: shards,
		claims: make([]atomic.Uint64, len(shards)),
		marks:  make([]uint64, len(shards)),
		load:   make([]uint64, len(shards)),
		byLoad: make([]int, len(shards)),
	}
	g.coord.tok = make(chan struct{}, 1)
	for i := range g.byLoad {
		g.byLoad[i] = i
	}
	return g
}

// lease leases helpers for one RunFor: up to W-1 of them, where
// W = min(pool width, GOMAXPROCS, shards), since the caller is a worker
// too. A helper the pool cannot supply right now is simply not leased,
// and its share stays on the caller, so a busy pool degrades to the
// serial loop instead of blocking. lease reports whether any helper was
// leased; if so, release must follow.
func (g *gang) lease(pool *runner.Pool) bool {
	w := min(pool.Width(), runtime.GOMAXPROCS(0), len(g.shards))
	g.active = g.active[:0]
	g.stop.Store(false)
	for len(g.active) < w-1 {
		i := len(g.active)
		if i == len(g.helpers) {
			h := &helper{g: g, group: i + 1}
			h.park.tok = make(chan struct{}, 1)
			h.loop = h.run
			g.helpers = append(g.helpers, h)
		}
		h := g.helpers[i]
		h.seen, h.panicked = g.gen.Load(), nil
		ok := false
		for try := 0; try < leaseTries && !ok; try++ {
			if ok = pool.TryGo(h.loop); !ok {
				runtime.Gosched()
			}
		}
		if !ok {
			break
		}
		g.active = append(g.active, h)
	}
	g.leased += uint64(len(g.active))
	g.exits += uint64(len(g.active))
	if len(g.active) == 0 {
		return false
	}
	if gs := g.groups.Load(); gs == nil || len(*gs) != len(g.active)+1 {
		g.regroup(len(g.active) + 1)
	}
	return true
}

// step advances every shard to t.
func (g *gang) step(t sim.Time) {
	if len(g.active) == 0 {
		for _, e := range g.shards {
			e.RunUntil(t)
		}
		return
	}
	if g.sinceRegroup++; g.sinceRegroup >= regroupEpochs {
		g.regroup(len(g.active) + 1)
	}
	g.until = t
	g.target += uint64(len(g.shards))
	gen := g.gen.Add(1)
	for _, h := range g.active {
		h.park.wake()
	}
	g.work(0, gen)
	g.coord.await(&g.finished, g.target)
	for _, h := range g.active {
		if h.panicked != nil {
			panic(h.panicked)
		}
	}
}

// work steps, for generation gen, every shard it can claim: its own
// group front to back, then the other groups' unclaimed shards back to
// front.
func (g *gang) work(own int, gen uint64) {
	groups := *g.groups.Load()
	for _, s := range groups[own] {
		g.claim(s, gen)
	}
	for k := 1; k < len(groups); k++ {
		other := groups[(own+k)%len(groups)]
		for i := len(other) - 1; i >= 0; i-- {
			g.claim(other[i], gen)
		}
	}
}

// claim steps shard s to the barrier unless another worker already
// claimed it for gen. A late worker holding an older generation claims
// nothing: once an epoch ends every shard carries its generation.
func (g *gang) claim(s int, gen uint64) {
	c := g.claims[s].Load()
	if c >= gen || !g.claims[s].CompareAndSwap(c, gen) {
		return
	}
	// The claim succeeded, so epoch gen is still open and until is its
	// barrier.
	g.shards[s].RunUntil(g.until)
	g.finished.Add(1)
	g.coord.wake()
}

// release stops the leased helpers and returns once each has left the
// gang, so no helper outlives the RunFor that leased it. It also runs
// when RunFor unwinds from a panic, even one raised mid-epoch.
func (g *gang) release() {
	g.stop.Store(true)
	g.gen.Add(1)
	for _, h := range g.active {
		h.park.wake()
	}
	g.coord.await(&g.exited, g.exits)
	g.active = g.active[:0]
}

// run is a helper's life on its leased worker: wait for a generation,
// work it, until released. A panic in a shard ends the helper; the
// caller re-raises it.
func (h *helper) run() {
	g := h.g
	defer func() {
		if pv := recover(); pv != nil {
			// The shard that panicked counts as stepped, so the caller
			// stops waiting for it.
			h.panicked = pv
			g.finished.Add(1)
			g.exited.Add(1)
			g.coord.wake()
		}
	}()
	for {
		h.park.await(&g.gen, h.seen+1)
		// Load the generation before stop: stop is set before the
		// releasing bump, so a helper that loaded that bump sees it.
		h.seen = g.gen.Load()
		if g.stop.Load() {
			g.exited.Add(1)
			g.coord.wake()
			return
		}
		g.work(h.group, h.seen)
	}
}

// regroup splits the shards into n groups of near-equal recent work:
// heaviest shard first, each onto the lightest group so far. A shard's
// weight is the events it ran since the last regroup, plus one so that
// shards without history spread by count. The groups are published as a
// new slice, since a late helper may still be reading the old one.
func (g *gang) regroup(n int) {
	g.sinceRegroup = 0
	for i, e := range g.shards {
		g.load[i] = e.Processed - g.marks[i] + 1
		g.marks[i] = e.Processed
	}
	slices.SortFunc(g.byLoad, func(a, b int) int {
		return cmp.Or(cmp.Compare(g.load[b], g.load[a]), cmp.Compare(a, b))
	})
	groups := make([][]int, n)
	sums := make([]uint64, n)
	for _, s := range g.byLoad {
		j := 0
		for k := range sums {
			if sums[k] < sums[j] {
				j = k
			}
		}
		groups[j] = append(groups[j], s)
		sums[j] += g.load[s]
	}
	g.groups.Store(&groups)
}
