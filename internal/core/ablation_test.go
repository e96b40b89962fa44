package core

import (
	"strings"
	"testing"
)

func TestRunAblationClusters(t *testing.T) {
	res, err := RunAblationClusters(figRunner, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	two, four := res.Points[0], res.Points[1]
	// More clusters -> more sleeping peers per unit of work under the
	// consolidating Coordinated Blackout: per-cluster savings grow.
	if four.IntSavings <= two.IntSavings {
		t.Errorf("4-cluster INT savings %.3f not above 2-cluster %.3f",
			four.IntSavings, two.IntSavings)
	}
	if !strings.Contains(res.Table.String(), "clusters") {
		t.Fatal("ablation table malformed")
	}
}

func TestRunAblationMaxHold(t *testing.T) {
	res, err := RunAblationMaxHold(figRunner, []int{0, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	unbounded, tight := res.Points[0], res.Points[1]
	if unbounded.Label != "unbounded (paper)" {
		t.Fatalf("label = %q", unbounded.Label)
	}
	// A very tight forced-switch threshold fragments the type clusters and
	// must not increase savings relative to the unbounded paper default.
	if tight.IntSavings > unbounded.IntSavings+0.02 {
		t.Errorf("tight hold savings %.3f implausibly above unbounded %.3f",
			tight.IntSavings, unbounded.IntSavings)
	}
	for _, p := range res.Points {
		if p.Perf <= 0.5 || p.Perf > 1.05 {
			t.Errorf("%s perf %.3f implausible", p.Label, p.Perf)
		}
	}
}

func TestRunAblationIdleDetect(t *testing.T) {
	res, err := RunAblationIdleDetect(figRunner, []int{2, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Growing the window trades gating opportunity for fewer bad gatings;
	// both points must at least be finite and performance sane.
	for _, p := range res.Points {
		if p.Perf <= 0.5 || p.Perf > 1.05 {
			t.Errorf("%s perf %.3f implausible", p.Label, p.Perf)
		}
		if p.IntSavings < -1 || p.IntSavings > 1 {
			t.Errorf("%s savings %.3f out of range", p.Label, p.IntSavings)
		}
	}
}

func TestRunAblationScheduler(t *testing.T) {
	res, err := RunAblationScheduler(figRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2 schedulers", len(res.Points))
	}
	labels := []string{"TwoLevel", "GATES"}
	for i, p := range res.Points {
		if p.Label != labels[i] {
			t.Fatalf("point %d label %q, want %q", i, p.Label, labels[i])
		}
		if p.Perf <= 0.5 || p.Perf > 1.05 {
			t.Errorf("%s perf %.3f implausible", p.Label, p.Perf)
		}
	}
}

func TestRunAblationAuxBlackout(t *testing.T) {
	res, err := RunAblationAuxBlackout(figRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	conv, bo := res.Points[0], res.Points[1]
	if conv.Label == bo.Label {
		t.Fatal("variants not distinguished")
	}
	// Blackout on the aux units must never produce uncompensated events, so
	// its savings are bounded below by roughly the conventional result; at
	// minimum both variants must be sane.
	for _, p := range res.Points {
		if p.Perf <= 0.5 || p.Perf > 1.05 {
			t.Errorf("%s perf %.3f implausible", p.Label, p.Perf)
		}
	}
	if !strings.Contains(res.Table.String(), "SFU savings") {
		t.Fatal("aux ablation table malformed")
	}
}

func TestAblationValidation(t *testing.T) {
	if _, err := RunAblationClusters(figRunner, nil); err == nil {
		t.Error("empty cluster list accepted")
	}
	if _, err := RunAblationClusters(figRunner, []int{0}); err == nil {
		t.Error("zero clusters accepted")
	}
	if _, err := RunAblationMaxHold(figRunner, nil); err == nil {
		t.Error("empty hold list accepted")
	}
	if _, err := RunAblationMaxHold(figRunner, []int{-1}); err == nil {
		t.Error("negative hold accepted")
	}
	if _, err := RunAblationIdleDetect(figRunner, nil); err == nil {
		t.Error("empty window list accepted")
	}
	if _, err := RunAblationIdleDetect(figRunner, []int{-2}); err == nil {
		t.Error("negative window accepted")
	}
}
