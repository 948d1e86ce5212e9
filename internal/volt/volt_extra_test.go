package volt

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/netlist"
	"repro/internal/timing"
)

// pairDesign returns two adjacent modules with controllable slack.
func pairDesign(delayA, delayB float64) *netlist.Design {
	return &netlist.Design{
		Name: "pair",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 50, H: 50, Power: 1, IntrinsicDelay: delayA},
			{Name: "b", Kind: netlist.Hard, W: 50, H: 50, Power: 1, IntrinsicDelay: delayB},
		},
		Nets:     []*netlist.Net{{Name: "n", Modules: []int{0, 1}}},
		OutlineW: 100, OutlineH: 100, Dies: 1,
	}
}

func TestTightSlackForcesReference(t *testing.T) {
	d := pairDesign(1.0, 1.0)
	l := floorplan.New(d).Pack()
	ref := timing.Analyze(l, nil, timing.DefaultParams())
	// TargetFactor 1.0: zero slack; 0.8 V (1.56x) infeasible everywhere.
	asg := Assign(l, ref, Config{Mode: PowerAware, TargetFactor: 1.0000001})
	for m := range d.Modules {
		if asg.LevelOf[m].V == 0.8 {
			t.Fatalf("module %d assigned 0.8V without slack", m)
		}
	}
}

func TestGenerousSlackAllowsLowVoltage(t *testing.T) {
	d := pairDesign(1.0, 1.0)
	l := floorplan.New(d).Pack()
	ref := timing.Analyze(l, nil, timing.DefaultParams())
	// 2x slack: 1.56x delay fits easily, power-aware must use it.
	asg := Assign(l, ref, Config{Mode: PowerAware, TargetFactor: 2.0})
	for m := range d.Modules {
		if asg.LevelOf[m].V != 0.8 {
			t.Fatalf("module %d should run at 0.8V with 2x slack, got %v", m, asg.LevelOf[m].V)
		}
	}
	wantPower := 2 * 0.817
	if math.Abs(asg.TotalPower-wantPower) > 1e-9 {
		t.Fatalf("power %v want %v", asg.TotalPower, wantPower)
	}
}

func TestAsymmetricSlack(t *testing.T) {
	// Module a dominates the hop; b is fast: slowing b (0.1 -> 0.156 ns)
	// fits a 10% slack target, slowing a (1.0 -> 1.56 ns) blows the hop.
	// MaxVolumeSize 1 keeps the two adjacent modules in separate volumes so
	// the per-module feasibility is observable.
	d := pairDesign(1.0, 0.1)
	l := floorplan.New(d).Pack()
	ref := timing.Analyze(l, nil, timing.DefaultParams())
	asg := Assign(l, ref, Config{Mode: PowerAware, TargetFactor: 1.10, MaxVolumeSize: 1})
	if asg.LevelOf[0].V == 0.8 {
		t.Fatal("critical module a must not drop to 0.8V at 10% slack")
	}
	if asg.LevelOf[1].V != 0.8 {
		t.Fatalf("slack-rich module b should drop to 0.8V, got %v", asg.LevelOf[1].V)
	}
}

func TestRepairRestoresTiming(t *testing.T) {
	// Force an over-aggressive assignment by hand, then Repair.
	d := pairDesign(1.0, 1.0)
	l := floorplan.New(d).Pack()
	p := timing.DefaultParams()
	ref := timing.Analyze(l, nil, p)
	cfg := Config{Mode: PowerAware, TargetFactor: 1.05}
	asg := Assign(l, ref, cfg)
	// Sabotage: drop everything to 0.8V regardless of feasibility.
	low := Levels90nm()[0]
	for vi := range asg.Volumes {
		asg.setVolumeLevel(vi, low, l)
	}
	final := Repair(l, asg, p, cfg)
	if final.Critical > asg.Target+1e-9 {
		// Acceptable only if nothing sub-reference remains.
		for _, v := range asg.Volumes {
			if v.Level.DelayScale > 1 {
				t.Fatalf("repair left %v while failing timing", v.Level.V)
			}
		}
	}
}

func TestLevelsHelpers(t *testing.T) {
	levels := Levels90nm()
	const mask = 0b101 // 0.8 V and 1.2 V
	feas := feasibleLevels(nil, mask, levels)
	if len(feas) != 2 || feas[0].V != 0.8 || feas[1].V != 1.2 {
		t.Fatalf("feasibleLevels: %+v", feas)
	}
	lv := lowestLevel(mask, levels)
	if lv == nil || lv.V != 0.8 {
		t.Fatalf("lowestLevel: %+v", lv)
	}
	if refLevel(levels).V != 1.0 {
		t.Fatal("refLevel")
	}
	if lowestLevel(0, levels) != nil {
		t.Fatal("empty mask must yield nil")
	}
}

func TestStatHelpers(t *testing.T) {
	dens := []float64{1, 3}
	if meanDensity([]int{0, 1}, dens) != 2 {
		t.Fatal("mean")
	}
	if stdDensity([]int{0, 1}, dens) != 1 {
		t.Fatal("std")
	}
	if stdDensity([]int{0}, dens) != 0 {
		t.Fatal("singleton std must be 0")
	}
	if meanOf(nil) != 0 || stdOf(nil) != 0 {
		t.Fatal("empty stats")
	}
}

func TestLowestPowerScaleTable(t *testing.T) {
	// The assigner's lowPS table must agree with lowestLevel for every mask
	// value: it replaces the per-candidate scan on the growth hot path.
	levels := Levels90nm()
	a := NewAssigner(Config{})
	for mask := uint32(0); mask < 1<<len(levels); mask++ {
		want := 1.0
		if lv := lowestLevel(mask, levels); lv != nil {
			want = lv.PowerScale
		}
		if got := a.lowPS[mask]; got != want {
			t.Fatalf("lowPS[%03b] = %v, want %v", mask, got, want)
		}
	}
	// The empty mask yields a zero saving through the power formula.
	if s := 2.0 * (1 - a.lowPS[0]); s != 0 {
		t.Fatalf("empty-mask saving = %v, want 0", s)
	}
	if want := 2.0 * (1 - 0.817); math.Abs(2.0*(1-a.lowPS[0b011])-want) > 1e-12 {
		t.Fatalf("masked saving wrong: %v", 2.0*(1-a.lowPS[0b011]))
	}
}
