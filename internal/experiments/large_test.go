package experiments

import (
	"testing"

	"facilitymap/internal/cfs"
	"facilitymap/internal/world"
)

// budgetedLargeConfig is the tight CFS operating point for
// internet-scale smoke runs: every subsystem stays on, but iteration,
// follow-up and alias budgets shrink so a Large-world convergence run
// finishes in CI minutes, not hours.
func budgetedLargeConfig() cfs.Config {
	cfg := cfs.DefaultConfig()
	cfg.MaxIterations = 3
	cfg.FollowUpBudget = 50
	cfg.TargetsPerInterface = 2
	cfg.VPsPerTarget = 1
	cfg.AliasRounds = []int{1}
	return cfg
}

// TestLargeWorldConvergence is the end-to-end smoke for the
// internet-scale profile: build the full observational stack over
// world.Large (scaled fleet, sampled wide scan), run CFS under a tight
// budget, and check the run actually inferred something sensible.
// Generation plus the campaign take minutes, so -short skips it; the
// nightly CI job runs it in full.
func TestLargeWorldConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("Large-world convergence run takes minutes")
	}
	env := NewEnv(world.Large(), 5)

	if n := len(env.W.ASes); n < 20000 {
		t.Fatalf("Large world has %d ASes, want tens of thousands", n)
	}
	if env.WideScanSample == 0 {
		t.Fatal("NewEnv did not enable wide-scan sampling for an internet-scale world")
	}
	if fleet := len(env.Fleet.VPs); fleet == 0 || fleet > 5000 {
		t.Fatalf("scaled deployment placed %d vantage points, want a bounded non-empty fleet", fleet)
	}

	res := env.RunCFS(budgetedLargeConfig())
	if len(res.Interfaces) == 0 {
		t.Fatal("run observed no peering interfaces")
	}
	if len(res.History) == 0 {
		t.Fatal("run recorded no iterations")
	}
	if res.Resolved() == 0 {
		t.Error("budgeted run resolved no interface to a facility")
	}
	last := res.History[len(res.History)-1]
	if last.Observed != len(res.Interfaces) {
		t.Errorf("history says %d observed, result holds %d", last.Observed, len(res.Interfaces))
	}
	t.Logf("large smoke: VPs=%d observed=%d resolved=%d (%.1f%%) iterations=%d",
		len(env.Fleet.VPs), len(res.Interfaces), res.Resolved(),
		100*res.ResolvedFraction(), len(res.History))
}
