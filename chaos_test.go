package ceio_test

import (
	"bytes"
	"strings"
	"testing"

	"ceio"
	"ceio/internal/trace"
)

// The chaos suite drives CEIO through sustained fault injection and
// demands graceful degradation: the run completes without a panic, the
// invariants auditor stays clean, leaked credits are reconciled, and the
// flow keeps making progress (no livelock, no deadlock). Run it alone
// with `go test -run Chaos ./...`.

func chaosSim(t *testing.T, cfg ceio.Config, opts ceio.CEIOOptions, plan ceio.FaultPlan) (*ceio.Simulator, *ceio.FaultInjector, *ceio.Auditor) {
	t.Helper()
	s, err := ceio.NewCEIOSimulatorE(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	a := s.AttachAuditor(50 * ceio.Microsecond)
	ij, err := s.InjectFaults(plan)
	if err != nil {
		t.Fatal(err)
	}
	return s, ij, a
}

// Baseline chaos: wire loss and corruption plus periodic DMA stalls and
// CPU stalls. Traffic must keep flowing and every invariant must hold.
func TestChaosWireAndStalls(t *testing.T) {
	cfg := ceio.DefaultConfig()
	cfg.Seed = 11
	plan := ceio.FaultPlan{
		Seed:            101,
		WireDropRate:    0.02,
		WireCorruptRate: 0.01,
		DMAStall:        ceio.FaultEpisode{PeriodNs: 400_000, DurationNs: 30_000},
		CPUStall:        ceio.FaultEpisode{PeriodNs: 250_000, DurationNs: 20_000},
		CPUStallNs:      5_000,
	}
	s, ij, a := chaosSim(t, cfg, ceio.DefaultCEIOOptions(), plan)
	for i := 1; i <= 4; i++ {
		s.AddFlow(ceio.KVFlow(i, 512))
	}
	s.AddFlow(ceio.FileTransferFlow(10, 1024, 256))
	s.RunFor(10 * ceio.Millisecond)
	a.Final()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot().DeliveredPkts == 0 {
		t.Fatal("no packets delivered under wire faults")
	}
	if ij.Stats.WireDrops == 0 || ij.Stats.WireCorrupts == 0 {
		t.Fatalf("fault plan never fired: %+v", ij.Stats)
	}
	m := s.Machine()
	if m.FaultDrops == 0 || m.FaultCorrupts == 0 {
		t.Fatalf("machine did not account injected wire faults: drops=%d corrupts=%d",
			m.FaultDrops, m.FaultCorrupts)
	}
	if m.DMA.FaultStalls == 0 {
		t.Fatal("DMA stall episodes never engaged")
	}
}

// Credit-release loss with a tiny credit pool: without reconciliation the
// pool bleeds dry and the flows wedge on the slow path. The heartbeat
// must reclaim every leaked credit and the ledger must balance.
func TestChaosCreditLossReconciled(t *testing.T) {
	cfg := ceio.DefaultConfig()
	cfg.Seed = 12
	opts := ceio.DefaultCEIOOptions()
	opts.TotalCredits = 256
	opts.ReclaimPeriod = 200 * ceio.Microsecond
	plan := ceio.FaultPlan{Seed: 202, CreditLossRate: 0.05}
	s, ij, a := chaosSim(t, cfg, opts, plan)
	for i := 1; i <= 4; i++ {
		s.AddFlow(ceio.KVFlow(i, 512))
	}
	s.RunFor(12 * ceio.Millisecond)
	dp := s.CEIO()
	if dp.CreditLossEvents == 0 || ij.Stats.CreditLosses == 0 {
		t.Fatal("credit-loss injection never fired")
	}
	if dp.CreditsReclaimed == 0 {
		t.Fatal("reconciliation never reclaimed a leaked credit")
	}
	// Quiesce: stop generators and let in-flight work plus one more
	// reconciliation heartbeat finish, then the gap must be fully closed.
	for i := 1; i <= 4; i++ {
		s.PauseFlow(i)
	}
	s.RunFor(2 * ceio.Millisecond)
	a.Final()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if gap := dp.ReleaseGap(); gap != 0 {
		t.Fatalf("release gap %d after reconciliation, want 0", gap)
	}
	if err := dp.AuditCredits(); err != nil {
		t.Fatal(err)
	}
}

// Steering updates that always fail: flows must fall back to a degraded
// slow-path pin and keep delivering — bounded retries, no livelock.
func TestChaosSteeringFallbackNoLivelock(t *testing.T) {
	cfg := ceio.DefaultConfig()
	cfg.Seed = 13
	opts := ceio.DefaultCEIOOptions()
	opts.TotalCredits = 128 // small pool: demotions (and thus rule updates) happen early
	plan := ceio.FaultPlan{Seed: 303, SteerFailRate: 1.0}
	s, _, a := chaosSim(t, cfg, opts, plan)
	for i := 1; i <= 2; i++ {
		s.AddFlow(ceio.KVFlow(i, 512))
	}
	s.RunFor(4 * ceio.Millisecond)
	mid := s.Snapshot().DeliveredPkts
	s.RunFor(4 * ceio.Millisecond)
	end := s.Snapshot().DeliveredPkts
	dp := s.CEIO()
	if dp.SteerFallbacks == 0 {
		t.Fatal("steering fallback never engaged despite 100% update failure")
	}
	if end <= mid {
		t.Fatalf("delivery stalled in degraded mode: %d then %d", mid, end)
	}
	a.Final()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if s.Machine().Steer.FailedUpdates == 0 {
		t.Fatal("steering table recorded no failed updates")
	}
}

// Delayed steering commits plus lost read completions: the stale-rule
// check must preserve per-flow delivery order (the auditor enforces it)
// and read retransmits must finish the slow-path drain.
func TestChaosDelayedSteerAndReadLoss(t *testing.T) {
	cfg := ceio.DefaultConfig()
	cfg.Seed = 14
	opts := ceio.DefaultCEIOOptions()
	opts.TotalCredits = 128
	opts.ReadTimeout = 10 * ceio.Microsecond
	plan := ceio.FaultPlan{
		Seed:         404,
		SteerDelayNs: 8_000,
		ReadLossRate: 0.1,
	}
	s, _, a := chaosSim(t, cfg, opts, plan)
	for i := 1; i <= 2; i++ {
		s.AddFlow(ceio.KVFlow(i, 512))
	}
	s.RunFor(10 * ceio.Millisecond)
	a.Final()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	dp := s.CEIO()
	if dp.ReadRetries == 0 {
		t.Fatal("read retransmit never fired despite 10% completion loss")
	}
	if dp.StaleSteerHits == 0 {
		t.Fatal("stale-rule reroute never fired despite delayed commits")
	}
	if s.Snapshot().DeliveredPkts == 0 {
		t.Fatal("no deliveries under delayed steering")
	}
}

// On-NIC memory pressure episodes with a shrunken elastic buffer: the
// datapath must shed load gracefully (ECN pressure marks before drops)
// and elastic-byte accounting must stay exact, including across a flow
// teardown mid-pressure.
func TestChaosNICMemPressureSheds(t *testing.T) {
	cfg := ceio.DefaultConfig()
	cfg.Seed = 15
	cfg.NICMemBytes = 256 * 1024
	opts := ceio.DefaultCEIOOptions()
	opts.TotalCredits = 64 // force heavy slow-path use
	plan := ceio.FaultPlan{
		Seed:                   505,
		NICMemPressure:         ceio.FaultEpisode{PeriodNs: 300_000, DurationNs: 150_000},
		NICMemPressureFraction: 0.9,
	}
	s, _, a := chaosSim(t, cfg, opts, plan)
	for i := 1; i <= 4; i++ {
		s.AddFlow(ceio.KVFlow(i, 1024))
	}
	s.RunFor(5 * ceio.Millisecond)
	s.RemoveFlow(2) // teardown while the elastic buffer is under pressure
	s.RunFor(5 * ceio.Millisecond)
	a.Final()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	dp := s.CEIO()
	if dp.PressureMarks == 0 {
		t.Fatal("graceful shedding never marked a packet under pressure")
	}
	if err := dp.AuditElastic(); err != nil {
		t.Fatal(err)
	}
}

// Everything at once, with churn. The combined storm must not panic, must
// not wedge, and must leave every conservation invariant intact.
func TestChaosCombinedStormWithChurn(t *testing.T) {
	cfg := ceio.DefaultConfig()
	cfg.Seed = 16
	opts := ceio.DefaultCEIOOptions()
	opts.TotalCredits = 256
	opts.ReclaimPeriod = 250 * ceio.Microsecond
	plan := ceio.FaultPlan{
		Seed:                   606,
		WireDropRate:           0.01,
		CreditLossRate:         0.03,
		SteerFailRate:          0.3,
		SteerDelayNs:           5_000,
		ReadLossRate:           0.05,
		DMAStall:               ceio.FaultEpisode{PeriodNs: 500_000, DurationNs: 40_000},
		NICMemPressure:         ceio.FaultEpisode{PeriodNs: 700_000, DurationNs: 200_000, PhaseNs: 100_000},
		NICMemPressureFraction: 0.5,
		CPUStall:               ceio.FaultEpisode{PeriodNs: 350_000, DurationNs: 25_000},
		CPUStallNs:             4_000,
	}
	s, _, a := chaosSim(t, cfg, opts, plan)
	for i := 1; i <= 6; i++ {
		s.AddFlow(ceio.KVFlow(i, 512))
	}
	s.At(3*ceio.Millisecond, func() { s.RemoveFlow(2) })
	s.At(4*ceio.Millisecond, func() { s.RemoveFlow(5) })
	s.At(5*ceio.Millisecond, func() {
		s.AddFlow(ceio.KVFlow(20, 256))
		s.AddFlow(ceio.FileTransferFlow(21, 1024, 128))
	})
	s.RunFor(15 * ceio.Millisecond)
	if s.Snapshot().DeliveredPkts == 0 {
		t.Fatal("storm wedged the datapath")
	}
	// Quiesce before the final audit so the release gap can close.
	for _, id := range []int{1, 3, 4, 6, 20, 21} {
		s.PauseFlow(id)
	}
	s.RunFor(3 * ceio.Millisecond)
	a.Final()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if gap := s.CEIO().ReleaseGap(); gap != 0 {
		t.Fatalf("release gap %d after quiesce, want 0", gap)
	}
}

// Identical seed and fault plan must reproduce the run byte for byte —
// the replay guarantee that makes chaos failures debuggable.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func() (string, uint64, ceio.FaultStats) {
		cfg := ceio.DefaultConfig()
		cfg.Seed = 17
		opts := ceio.DefaultCEIOOptions()
		opts.TotalCredits = 256
		plan := ceio.FaultPlan{
			Seed:           707,
			WireDropRate:   0.02,
			CreditLossRate: 0.02,
			SteerFailRate:  0.2,
			ReadLossRate:   0.05,
			DMAStall:       ceio.FaultEpisode{PeriodNs: 400_000, DurationNs: 30_000},
		}
		s, ij, _ := chaosSim(t, cfg, opts, plan)
		tr := trace.New(1 << 16)
		s.Machine().Tracer = tr
		for i := 1; i <= 3; i++ {
			s.AddFlow(ceio.KVFlow(i, 512))
		}
		s.RunFor(6 * ceio.Millisecond)
		var buf bytes.Buffer
		tr.Dump(&buf)
		return buf.String(), s.Snapshot().DeliveredPkts, ij.Stats
	}
	t1, d1, f1 := run()
	t2, d2, f2 := run()
	if d1 != d2 || f1 != f2 {
		t.Fatalf("replay diverged: delivered %d vs %d, faults %+v vs %+v", d1, d2, f1, f2)
	}
	if t1 != t2 {
		i := 0
		for i < len(t1) && i < len(t2) && t1[i] == t2[i] {
			i++
		}
		lo := i - 100
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("trace diverged near byte %d:\n...%s\nvs\n...%s",
			i, t1[lo:min(i+100, len(t1))], t2[lo:min(i+100, len(t2))])
	}
	if !strings.Contains(t1, "fault") {
		t.Fatal("trace recorded no fault events")
	}
}

// The combined storm on a multi-queue machine (Config.Cores > 0): RSS
// dispatch, per-core polling, and CEIO's per-core credit carve must all
// survive the same fault cocktail as the single-queue storm. The auditor
// checks on every sweep that the per-core credit shares still sum to
// Algorithm 1's C_total — recarves triggered mid-storm (flow churn moves
// flows between queues) must conserve the pool.
func TestChaosCores(t *testing.T) {
	cfg := ceio.DefaultConfig()
	cfg.Seed = 18
	cfg.Cores = 4
	opts := ceio.DefaultCEIOOptions()
	opts.TotalCredits = 256
	opts.ReclaimPeriod = 250 * ceio.Microsecond
	plan := ceio.FaultPlan{
		Seed:                   909,
		WireDropRate:           0.01,
		CreditLossRate:         0.03,
		SteerFailRate:          0.3,
		SteerDelayNs:           5_000,
		ReadLossRate:           0.05,
		DMAStall:               ceio.FaultEpisode{PeriodNs: 500_000, DurationNs: 40_000},
		NICMemPressure:         ceio.FaultEpisode{PeriodNs: 700_000, DurationNs: 200_000, PhaseNs: 100_000},
		NICMemPressureFraction: 0.5,
		CPUStall:               ceio.FaultEpisode{PeriodNs: 350_000, DurationNs: 25_000},
		CPUStallNs:             4_000,
	}
	s, ij, a := chaosSim(t, cfg, opts, plan)
	id := 1
	for q := 1; q <= cfg.Cores; q++ {
		for k := 0; k < 2; k++ {
			f := ceio.KVFlow(id, 512)
			f.Queue = q
			s.AddFlow(f)
			id++
		}
	}
	// Churn mid-storm so credit shares recarve under faults.
	s.At(3*ceio.Millisecond, func() { s.RemoveFlow(2) })
	s.At(5*ceio.Millisecond, func() {
		f := ceio.KVFlow(20, 256)
		f.Queue = 1
		s.AddFlow(f)
	})
	s.RunFor(12 * ceio.Millisecond)
	sn := s.Snapshot()
	if sn.DeliveredPkts == 0 {
		t.Fatal("storm wedged the multi-queue datapath")
	}
	if len(sn.Cores) != cfg.Cores {
		t.Fatalf("snapshot has %d cores, want %d", len(sn.Cores), cfg.Cores)
	}
	shares := 0
	for _, c := range sn.Cores {
		shares += c.CreditShare
	}
	if shares != opts.TotalCredits {
		t.Fatalf("per-core credit shares sum to %d, want C_total=%d", shares, opts.TotalCredits)
	}
	if ij.Stats.CreditLosses == 0 || ij.Stats.CPUStalls == 0 {
		t.Fatalf("fault plan never fired: %+v", ij.Stats)
	}
	// Quiesce before the final audit so the release gap can close.
	for _, fid := range []int{1, 3, 4, 5, 6, 7, 8, 20} {
		s.PauseFlow(fid)
	}
	s.RunFor(3 * ceio.Millisecond)
	a.Final()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
}

// Rack-scale chaos: a 4-host CEIO fleet where host 0 crashes mid-run
// while its machines also suffer wire loss and credit-release loss. The
// balancer must detect the crash, migrate every victim flow to a
// survivor through the credit-replaying handshake, rebalance after
// recovery — and both the per-host and fleet-level invariant auditors
// must come back clean.
func TestChaosFleetFailover(t *testing.T) {
	fc := ceio.DefaultFleetConfig(4, ceio.ArchCEIO)
	fc.Machine.Seed = 19
	fc.ProbePeriod = 20 * ceio.Microsecond
	fc.DrainDeadline = 500 * ceio.Microsecond
	storm := ceio.FaultPlan{
		Seed:           1010,
		WireDropRate:   0.01,
		CreditLossRate: 0.02,
	}
	withCrash := storm
	withCrash.HostCrash = ceio.OneShotFault(2*ceio.Millisecond, 1*ceio.Millisecond)
	// Host 0 crashes; every host suffers the wire/credit storm.
	fc.Plans = []ceio.FaultPlan{withCrash, storm, storm, storm}
	f, err := ceio.NewFleetE(fc)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 12; id++ {
		if id%3 == 0 {
			f.AddFlow(ceio.FileTransferFlow(id, 1024, 256))
		} else {
			f.AddFlow(ceio.KVFlow(id, 512))
		}
	}
	audit := f.AttachAuditors(50 * ceio.Microsecond)
	f.RunFor(6 * ceio.Millisecond)
	if f.Stats.Deaths == 0 {
		t.Fatal("balancer never declared the crashed host dead")
	}
	if f.Stats.Migrations == 0 {
		t.Fatal("no victim flow migrated to a survivor")
	}
	if f.Stats.Revivals == 0 {
		t.Fatal("balancer never revived the recovered host")
	}
	for id := 1; id <= 12; id++ {
		if h := f.HostOf(id); h < 0 {
			t.Fatalf("flow %d unplaced at end of run", id)
		}
	}
	// Quiesce rack-wide so reconciliation closes every release gap.
	f.Quiesce()
	f.RunFor(2 * ceio.Millisecond)
	audit.Final()
	if err := audit.Err(); err != nil {
		t.Fatal(err)
	}
}

// Chaos on a tenanted machine: NIC memory pressure plus CPU stalls while
// the dynamic repartitioner migrates LLC ways between tenants. The
// auditor's tenant-partition rule checks on every sweep that waymasks
// stay disjoint and conserved, no tenant drops below its floor, and the
// per-tenant partition occupancies sum to the machine's LLC occupancy.
func TestChaosTenants(t *testing.T) {
	cfg := ceio.DefaultConfig()
	cfg.Seed = 17
	cfg.NICMemBytes = 256 * 1024
	cfg.Tenancy = &ceio.TenancyConfig{
		Mode: ceio.TenantDynamic,
		Specs: []ceio.TenantSpec{
			{ID: "kv", Ways: 2},
			{ID: "bulk", Ways: 3},
		},
	}
	opts := ceio.DefaultCEIOOptions()
	opts.TotalCredits = 64 // force heavy slow-path use under pressure
	plan := ceio.FaultPlan{
		Seed:                   808,
		NICMemPressure:         ceio.FaultEpisode{PeriodNs: 300_000, DurationNs: 150_000},
		NICMemPressureFraction: 0.9,
		CPUStall:               ceio.FaultEpisode{PeriodNs: 350_000, DurationNs: 25_000},
		CPUStallNs:             4_000,
	}
	s, ij, a := chaosSim(t, cfg, opts, plan)
	id := 1
	for i := 0; i < 3; i++ {
		f := ceio.KVFlow(id, 512)
		f.Tenant = "kv"
		s.AddFlow(f)
		id++
	}
	for i := 0; i < 2; i++ {
		f := ceio.FileTransferFlow(id, 1024, 256)
		f.Tenant = "bulk"
		s.AddFlow(f)
		id++
	}
	s.RunFor(5 * ceio.Millisecond)
	s.RemoveFlow(2) // tenant flow teardown mid-pressure
	s.RunFor(5 * ceio.Millisecond)
	a.Final()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s.Machine().Tenants.Audit(); err != nil {
		t.Fatal(err)
	}
	dp := s.CEIO()
	if err := dp.AuditElastic(); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot().DeliveredPkts == 0 {
		t.Fatal("no packets delivered on the tenanted machine under faults")
	}
	if dp.PressureMarks == 0 {
		t.Fatal("graceful shedding never marked a packet under pressure")
	}
	if ij.Stats.CPUStalls == 0 {
		t.Fatalf("fault plan never fired: %+v", ij.Stats)
	}
}

// Chaos over the ToR fabric: a 6-host sharded rack where host 0 crashes
// outright, host 1's switch port flaps (blackholing a healthy host), a
// mid-run capacity cut halves every port's line rate, and an antagonist
// bulk tenant hammers each host's LLC partition throughout. The balancer
// must fail over both hosts — one from a real crash, one from pure
// fabric loss — re-steer within the drain deadline (bounded TTR), take
// both back afterwards, and close with zero invariant violations:
// placement, credit conservation, tenant waymasks, and the fabric's own
// byte ledger all audited.
func TestChaosFabric(t *testing.T) {
	fc := ceio.DefaultFleetConfig(6, ceio.ArchCEIO)
	fc.Machine.Seed = 23
	fc.Machine.Tenancy = &ceio.TenancyConfig{
		Mode: ceio.TenantDynamic,
		Specs: []ceio.TenantSpec{
			{ID: "kv", Ways: 2},
			{ID: "bulk", Ways: 3},
		},
	}
	fc.ProbePeriod = 20 * ceio.Microsecond
	fc.DrainDeadline = 2500 * ceio.Microsecond
	storm := ceio.FaultPlan{
		Seed:         2020,
		WireDropRate: 0.01,
	}
	crash := storm
	crash.HostCrash = ceio.OneShotFault(2*ceio.Millisecond, 1*ceio.Millisecond)
	flap := storm
	flap.PortFlap = ceio.OneShotFault(2500*ceio.Microsecond, 1*ceio.Millisecond)
	flap.PortFlapPort = 1
	cut := storm
	cut.FabricCut = ceio.OneShotFault(5*ceio.Millisecond, 500*ceio.Microsecond)
	cut.FabricCutFactor = 0.5
	fc.Plans = []ceio.FaultPlan{crash, flap, cut, storm, storm, storm}
	f, err := ceio.NewFleetE(fc)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 18; id++ {
		if id%3 == 0 {
			// The antagonist: bulk transfers thrashing the shared LLC.
			fl := ceio.FileTransferFlow(id, 1024, 256)
			fl.Tenant = "bulk"
			f.AddFlow(fl)
		} else {
			fl := ceio.KVFlow(id, 512)
			fl.Tenant = "kv"
			f.AddFlow(fl)
		}
	}
	audit := f.AttachAuditors(50 * ceio.Microsecond)
	f.RunFor(8 * ceio.Millisecond)

	if f.Stats.Crashes != 1 {
		t.Fatalf("crashes=%d, want 1 (only host 0 ever died)", f.Stats.Crashes)
	}
	if f.Stats.Deaths < 2 {
		t.Fatalf("deaths=%d, want >=2 (crashed host 0 and flap-darkened host 1)", f.Stats.Deaths)
	}
	if f.Stats.Migrations == 0 {
		t.Fatal("no victim flow migrated to a survivor")
	}
	if f.Stats.Revivals < 2 {
		t.Fatalf("revivals=%d, want >=2 (both hosts back)", f.Stats.Revivals)
	}
	st := f.SW.Stats()
	if st.PortDownDrops == 0 {
		t.Fatal("port flap never ate a frame at the switch")
	}
	if ttr := f.TimeToRecoverMax(); ceio.Duration(ttr) > fc.DrainDeadline {
		t.Fatalf("TTR max %dns blew the %v drain deadline", ttr, fc.DrainDeadline)
	}
	for id := 1; id <= 18; id++ {
		if h := f.HostOf(id); h < 0 {
			t.Fatalf("flow %d unplaced at end of run", id)
		}
	}
	f.Quiesce()
	f.RunFor(2 * ceio.Millisecond)
	audit.Final()
	if err := audit.Err(); err != nil {
		t.Fatal(err)
	}
}
