package invariants_test

import (
	"strings"
	"testing"

	"ceio/internal/core"
	"ceio/internal/invariants"
	"ceio/internal/iosys"
	"ceio/internal/sim"
)

// fakeFleet is a hand-driven FleetView: real CEIO machines, with the
// balancer's placement, the drain deadlines and the fabric ledgers set
// directly so each test can seed exactly one defect.
type fakeFleet struct {
	machines []*iosys.Machine
	placed   [][]int
	overdue  []int
	expected []int
	bytes    [4]uint64 // injected, delivered, dropped, queued
	frames   [4]uint64
}

// newFakeFleet builds a consistent two-host rack: flow 1 on host 0,
// flow 2 on host 1, both placed where they are installed, every
// controller at its built C_total, and balanced fabric ledgers.
func newFakeFleet() *fakeFleet {
	f := &fakeFleet{
		placed: [][]int{{1}, {2}},
		bytes:  [4]uint64{1000, 700, 100, 200},
		frames: [4]uint64{10, 7, 1, 2},
	}
	for h := 0; h < 2; h++ {
		dp := core.New(core.DefaultOptions())
		m := iosys.NewMachine(iosys.DefaultConfig(), dp)
		m.AddFlow(kvSpec(h+1, 512))
		f.machines = append(f.machines, m)
		f.expected = append(f.expected, dp.Controller().Total())
	}
	return f
}

func (f *fakeFleet) HostCount() int                   { return len(f.machines) }
func (f *fakeFleet) HostMachine(i int) *iosys.Machine { return f.machines[i] }
func (f *fakeFleet) HostLive(int) bool                { return true }
func (f *fakeFleet) PlacedFlowIDs(i int) []int        { return f.placed[i] }
func (f *fakeFleet) OverdueMigrations(sim.Time) []int { return f.overdue }
func (f *fakeFleet) ExpectedHostCredits(i int) int    { return f.expected[i] }
func (f *fakeFleet) FabricBytes() (a, b, c, d uint64) {
	return f.bytes[0], f.bytes[1], f.bytes[2], f.bytes[3]
}
func (f *fakeFleet) FabricFrames() (a, b, c, d uint64) {
	return f.frames[0], f.frames[1], f.frames[2], f.frames[3]
}

// sweep runs one fleet audit over v.
func sweep(v invariants.FleetView) *invariants.FleetAuditor {
	a := invariants.NewFleetAuditor(v, func() sim.Time { return 0 })
	a.SweepAt(5 * sim.Microsecond)
	return a
}

// Each seeded defect must fire its rule, and only its rule, once; and
// Count, Violations and Err must agree on what was seen.
func TestFleetAuditorSeededDefects(t *testing.T) {
	if a := sweep(newFakeFleet()); a.Err() != nil || a.Count() != 0 || a.Checks != 1 {
		t.Fatalf("consistent rack audited dirty: count=%d checks=%d err=%v", a.Count(), a.Checks, a.Err())
	}
	cases := []struct {
		name   string
		seed   func(*fakeFleet)
		rule   string
		detail string
	}{
		{"flow installed on two hosts", func(f *fakeFleet) { f.machines[1].AddFlow(kvSpec(1, 512)) },
			"flow-double-placed", "flow 1 installed on hosts 0 and 1"},
		{"balancer placement disagrees with machines", func(f *fakeFleet) { f.placed[1] = append(f.placed[1], 1) },
			"flow-double-placed", "balancer places flow 1 on host 1 but it is installed on host 0"},
		{"balancer places an uninstalled flow", func(f *fakeFleet) { f.placed[0] = append(f.placed[0], 9) },
			"flow-double-placed", "balancer places flow 9 on host 0 but it is installed on no host"},
		{"flow stranded past its drain deadline", func(f *fakeFleet) { f.overdue = []int{7} },
			"flow-lost-after-drain", "flow 7 still unplaced"},
		{"controller total off by one", func(f *fakeFleet) { f.expected[1]++ },
			"fleet-credit-conservation", "host 1 controller total"},
		{"fabric mints bytes", func(f *fakeFleet) { f.bytes[0]++ },
			"fabric-byte-conservation", "injected=1001"},
		{"fabric eats frames", func(f *fakeFleet) { f.frames[1]-- },
			"fabric-frame-conservation", "delivered=6"},
	}
	all := newFakeFleet()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeFleet()
			tc.seed(f)
			a := sweep(f)
			vs := a.Violations()
			if a.Count() != 1 || len(vs) != 1 {
				t.Fatalf("count=%d retained=%d, want exactly one violation: %v", a.Count(), len(vs), vs)
			}
			if vs[0].Rule != tc.rule || !strings.Contains(vs[0].Detail, tc.detail) {
				t.Fatalf("got %s %q, want %s containing %q", vs[0].Rule, vs[0].Detail, tc.rule, tc.detail)
			}
			if vs[0].At != 5*sim.Microsecond {
				t.Fatalf("violation stamped %v, want the sweep time", vs[0].At)
			}
			if err := a.Err(); err == nil || !strings.Contains(err.Error(), tc.rule) {
				t.Fatalf("Err() = %v, want it to name %s", err, tc.rule)
			}
		})
		tc.seed(all)
	}

	// Every defect at once: one violation per case, each retained and
	// each named in Err.
	a := sweep(all)
	if a.Count() != uint64(len(cases)) || len(a.Violations()) != len(cases) {
		t.Fatalf("count=%d retained=%d, want %d", a.Count(), len(a.Violations()), len(cases))
	}
	msg := a.Err().Error()
	if !strings.Contains(msg, "fleet invariants: 7 violation(s)") {
		t.Fatalf("Err() summary wrong: %s", msg)
	}
	for _, tc := range cases {
		if !strings.Contains(msg, tc.detail) {
			t.Errorf("Err() omits %q", tc.detail)
		}
	}
}
