// Package runner provides the bounded worker pool that fans independent
// simulation runs across CPU cores. Paper-side counterpart (per the
// DESIGN.md substitution table): the evaluation harness that drives each
// testbed configuration of §6.1 — here many simulated machines run
// concurrently instead of one testbed run at a time, without changing
// any measured number.
//
// Every run owns its sim.Engine, so
// runs share no state and execute in any order; determinism comes from
// collecting results into index-ordered slots, which makes the rendered
// output of a parallel run byte-identical to the serial run for a given
// seed (the multi-run orchestration shape gem5-style full-system
// simulators use).
//
// A single Pool is shared process-wide so that nested fan-out —
// experiments running concurrently, each fanning sweep points and seed
// replicas — still respects one global concurrency bound. Only leaf
// jobs (actual simulation runs) occupy a worker; a caller blocked in
// Do/Map holds no worker slot, so nesting cannot deadlock the pool.
// TryGo leases one idle worker to a long-lived job without ever
// blocking, so a caller can build on the pool's bound and fall back to
// its own goroutine when the pool is busy.
package runner

import (
	"runtime"
	"sync"
)

// DefaultWorkers returns the default pool width: GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Pool executes submitted jobs on a fixed set of worker goroutines.
// A nil *Pool is valid and runs every job inline on the caller —
// callers never need to special-case the serial path.
type Pool struct {
	jobs    chan poolJob
	workers int
	wg      sync.WaitGroup // workers
	once    sync.Once
}

type poolJob struct {
	run  func()
	done func(panicked any)
}

// NewPool starts a pool with the given number of workers. workers <= 1
// returns nil: the serial pool, which runs jobs inline.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers <= 1 {
		return nil
	}
	p := &Pool{jobs: make(chan poolJob), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		j.done(p.runOne(j.run))
	}
}

// runOne executes one job, converting a panic into a value so the
// submitting goroutine can re-raise it on its own stack.
func (p *Pool) runOne(fn func()) (panicked any) {
	defer func() { panicked = recover() }()
	fn()
	return nil
}

// Width returns the number of workers: 1 for the nil (serial) pool.
func (p *Pool) Width() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// TryGo runs fn on a worker that is idle right now and reports whether
// one was. It never blocks and never queues: when every worker is busy,
// or the pool is serial, fn does not run and TryGo returns false. The
// worker stays leased until fn returns, so fn counts against the pool's
// bound like any Do job. A panic in fn is not recovered for the caller;
// it crashes the process as it would on a plain goroutine.
func (p *Pool) TryGo(fn func()) bool {
	if p == nil {
		return false
	}
	select {
	case p.jobs <- poolJob{run: fn, done: repanic}:
		return true
	default:
		return false
	}
}

// repanic re-raises a TryGo job's panic on its worker.
func repanic(pv any) {
	if pv != nil {
		panic(pv)
	}
}

// Close shuts the workers down. Pending Do calls and TryGo jobs must
// have returned.
// Close on a nil (serial) pool is a no-op.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.jobs) })
	p.wg.Wait()
}

// Do runs job(0..n-1) across the pool and returns when all have
// finished. Each index runs exactly once; the caller's goroutine does
// not occupy a worker slot while waiting, so Do may be invoked from
// many goroutines concurrently (and from code that is itself fanned
// out above the leaf level) without risking pool starvation. If any
// job panics, Do re-panics with the first panic value after the
// remaining jobs complete.
func (p *Pool) Do(n int, job func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked any
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		p.jobs <- poolJob{
			run: func() { job(i) },
			done: func(pv any) {
				if pv != nil {
					mu.Lock()
					if panicked == nil {
						panicked = pv
					}
					mu.Unlock()
				}
				wg.Done()
			},
		}
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Map runs fn for every index and returns the results in index order,
// regardless of the order in which the workers finished them. This is
// the deterministic-aggregation primitive: result slot i depends only
// on input i, never on scheduling.
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	out := make([]T, n)
	p.Do(n, func(i int) { out[i] = fn(i) })
	return out
}
