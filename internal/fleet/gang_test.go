package fleet

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"ceio/internal/faults"
	"ceio/internal/runner"
	"ceio/internal/sim"
)

// failoverRack returns a 6-host rack with a host crash and a port flap,
// stepped on pool.
func failoverRack(t *testing.T, pool *runner.Pool) *Fleet {
	t.Helper()
	cfg := testConfig(6)
	cfg.Pool = pool
	cfg.Plans = []faults.Plan{
		{HostCrash: faults.OneShot(200*sim.Microsecond, 300*sim.Microsecond)},
		{PortFlap: faults.OneShot(400*sim.Microsecond, 100*sim.Microsecond), PortFlapPort: 1},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

const failoverRun = 1200 * sim.Microsecond

// holdAll leases every worker of pool and returns the function that
// frees them again. It fails the test if a worker stays busy, which is
// how a helper still spinning after RunFor would show.
func holdAll(t *testing.T, pool *runner.Pool) (free func()) {
	t.Helper()
	var started sync.WaitGroup
	hold := make(chan struct{})
	held := 0
	for deadline := time.Now().Add(5 * time.Second); held < pool.Width() && time.Now().Before(deadline); {
		started.Add(1)
		if pool.TryGo(func() { started.Done(); <-hold }) {
			held++
		} else {
			started.Done()
			runtime.Gosched()
		}
	}
	started.Wait()
	if held < pool.Width() {
		close(hold)
		t.Fatalf("only %d of %d pool workers came back idle", held, pool.Width())
	}
	return func() { close(hold) }
}

// A rack stepped while every pool worker is busy leases no helper: it
// does not wait for one, steps every shard on the caller, and matches
// the serial run byte for byte.
func TestBusyPoolStepsOnCaller(t *testing.T) {
	serial := fingerprint(t, failoverRack(t, nil), 18, failoverRun, failoverRun, nil)
	pool := runner.NewPool(8)
	defer pool.Close()
	free := holdAll(t, pool)
	defer free()
	f := failoverRack(t, pool)
	busy := fingerprint(t, f, 18, failoverRun, failoverRun, nil)
	if f.gang.leased != 0 {
		t.Fatalf("leased %d helpers from a fully busy pool", f.gang.leased)
	}
	if busy != serial {
		t.Fatalf("busy-pool run diverged from serial:\n--- serial ---\n%s--- busy pool ---\n%s", serial, busy)
	}
}

// Helpers live exactly as long as one RunFor: after every call the
// goroutine count is back at its baseline and every pool worker is idle
// again, and a rack stepped in many short calls still matches the
// serial run.
func TestNoHelperOutlivesRunFor(t *testing.T) {
	serial := fingerprint(t, failoverRack(t, nil), 18, failoverRun, failoverRun, nil)
	pool := runner.NewPool(4)
	defer pool.Close()
	f := failoverRack(t, pool)
	base := runtime.NumGoroutine()
	chunked := fingerprint(t, f, 18, failoverRun, 50*sim.Microsecond, func() {
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("%d goroutines after RunFor, %d before", n, base)
		}
		holdAll(t, pool)()
	})
	if runtime.GOMAXPROCS(0) > 1 && f.gang.leased == 0 {
		t.Fatal("no helper was leased on an idle pool")
	}
	if chunked != serial {
		t.Fatalf("chunked gang run diverged from serial:\n--- serial ---\n%s--- gang ---\n%s", serial, chunked)
	}
}

// A panic on any shard, whichever worker steps it, reaches RunFor's
// caller, and the helpers still go back to the pool.
func TestShardPanicReachesCaller(t *testing.T) {
	pool := runner.NewPool(4)
	defer pool.Close()
	f := failoverRack(t, pool)
	addTestFlows(t, f, 18)
	for _, h := range f.hosts {
		h.eng.At(30*sim.Microsecond, func(any) { panic("boom") }, nil)
	}
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		f.RunFor(100 * sim.Microsecond)
		t.Fatal("RunFor returned despite a panicking shard")
	}()
	holdAll(t, pool)()
}
