package experiments

import (
	"testing"

	"ceio/internal/tenant"
)

// TestTenantsDynamicBeatsShared pins the experiment's headline result:
// with the file-transfer antagonist active, the victim KV tenant's LLC
// miss rate must be strictly lower under dynamic repartitioning than
// under the shared (unpartitioned) LLC — even though dynamic mode starts
// from a deliberately starved victim allocation.
func TestTenantsDynamicBeatsShared(t *testing.T) {
	cfg := QuickConfig()
	schemes := tenantSchemes(cfg)
	if len(schemes) != 4 {
		t.Fatalf("schemes: %d, want 4", len(schemes))
	}
	shared := runTenantCell(cfg, schemes[0])
	dynamic := runTenantCell(cfg, schemes[2])

	if shared.victimMiss <= 0 {
		t.Fatalf("shared baseline shows no victim LLC misses (%.3f); antagonist is not thrashing", shared.victimMiss)
	}
	if dynamic.victimMiss >= shared.victimMiss {
		t.Fatalf("dynamic victim miss %.3f not strictly below shared %.3f", dynamic.victimMiss, shared.victimMiss)
	}
	// The controller must actually have migrated ways away from the
	// starved start (kv=1), not merely inherited a good layout.
	if dynamic.waysMoved == 0 {
		t.Fatal("dynamic repartitioning moved no ways from the starved start")
	}
	if dynamic.waysKV <= 1 {
		t.Fatalf("victim still starved after repartitioning: kv=%d ways", dynamic.waysKV)
	}
}

// TestTenantsCEIOCell smoke-tests the fourth row: CEIO's datapath on a
// dynamically partitioned machine, with per-tenant credit budgets.
func TestTenantsCEIOCell(t *testing.T) {
	cfg := QuickConfig()
	sc := tenantSchemes(cfg)[3]
	if !sc.ceio || sc.mode != tenant.ModeDynamic {
		t.Fatalf("scheme 3 is %+v, want dynamic+CEIO", sc)
	}
	r := runTenantCell(cfg, sc)
	if r.victimMpps <= 0 || r.antagGbps <= 0 {
		t.Fatalf("CEIO cell delivered nothing: %+v", r)
	}
	if r.waysKV+r.waysBulk+r.waysPool != 6 { // the DDIO region's 6 ways
		t.Fatalf("ways not conserved: kv=%d bulk=%d pool=%d", r.waysKV, r.waysBulk, r.waysPool)
	}
}
