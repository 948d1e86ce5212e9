package timing

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/netlist"
)

func TestDefaultParamsPlausible(t *testing.T) {
	p := DefaultParams()
	if p.RWire <= 0 || p.CWire <= 0 || p.RDriver <= 0 || p.CPin <= 0 {
		t.Fatalf("non-positive parasitics: %+v", p)
	}
	if p.RTSV <= 0 || p.CTSV <= 0 || p.VertLen <= 0 {
		t.Fatalf("non-positive TSV parasitics: %+v", p)
	}
	// A 1 mm 2-pin net should land in the tens-to-hundreds of ps.
	d := &netlist.Design{
		Name: "mm",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 10, H: 10, Power: 1, IntrinsicDelay: 0.1},
			{Name: "b", Kind: netlist.Hard, W: 10, H: 10, Power: 1, IntrinsicDelay: 0.1},
		},
		Nets:     []*netlist.Net{{Name: "n", Modules: []int{0, 1}}},
		OutlineW: 2000, OutlineH: 2000, Dies: 1,
	}
	l := floorplan.New(d).Pack()
	l.Rects[0] = l.Rects[0].Translate(0, 0)
	l.Rects[1] = l.Rects[1].Translate(1000, 0)
	got := NetElmore(l, 0, p)
	if got < 0.01 || got > 2 {
		t.Fatalf("1mm net delay %v ns implausible", got)
	}
}

func TestElmoreQuadraticInLength(t *testing.T) {
	// The distributed-RC term grows quadratically: delay(2L) - delay(0)
	// should exceed 2*(delay(L) - delay(0)).
	d := &netlist.Design{
		Name: "q",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 10, H: 10, Power: 1},
			{Name: "b", Kind: netlist.Hard, W: 10, H: 10, Power: 1},
		},
		Nets:     []*netlist.Net{{Name: "n", Modules: []int{0, 1}}},
		OutlineW: 20000, OutlineH: 20000, Dies: 1,
	}
	p := DefaultParams()
	at := func(dist float64) float64 {
		l := floorplan.New(d).Pack()
		l.Rects[1] = floorplan.New(d).Pack().Rects[1].Translate(dist, 0)
		return NetElmore(l, 0, p)
	}
	base := at(0)
	one := at(4000)
	two := at(8000)
	if (two - base) <= 2*(one-base) {
		t.Fatalf("expected super-linear growth: %v vs %v", two-base, one-base)
	}
}

func TestSlackHelperSigns(t *testing.T) {
	d := &netlist.Design{
		Name: "s",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 10, H: 10, Power: 1, IntrinsicDelay: 1},
			{Name: "b", Kind: netlist.Hard, W: 10, H: 10, Power: 1, IntrinsicDelay: 1},
		},
		Nets:     []*netlist.Net{{Name: "n", Modules: []int{0, 1}}},
		OutlineW: 100, OutlineH: 100, Dies: 1,
	}
	l := floorplan.New(d).Pack()
	a := Analyze(l, nil, DefaultParams())
	if a.Slack(0, a.Critical) < -1e-12 {
		t.Fatal("slack against the critical itself must be non-negative for all modules")
	}
	if a.Slack(0, a.Critical*0.5) >= 0 {
		t.Fatal("slack must go negative for an infeasible target")
	}
}

func TestTerminalOnlyNetsIgnoredBySTA(t *testing.T) {
	// A net touching one module plus a terminal constrains no module-to-
	// module hop; Arrive/Depart must stay zero for an isolated module.
	d := &netlist.Design{
		Name: "t",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 10, H: 10, Power: 1, IntrinsicDelay: 0.3},
		},
		Nets:      []*netlist.Net{{Name: "n", Modules: []int{0}, Terminals: []int{0}}},
		Terminals: []*netlist.Terminal{{Name: "p", X: 0, Y: 50}},
		OutlineW:  100, OutlineH: 100, Dies: 1,
	}
	l := floorplan.New(d).Pack()
	a := Analyze(l, nil, DefaultParams())
	if a.Arrive[0] != 0 || a.Depart[0] != 0 {
		t.Fatal("terminal nets must not create module hops")
	}
	if math.Abs(a.Critical-0.3) > 1e-12 {
		t.Fatalf("critical %v should equal the lone module delay", a.Critical)
	}
}

// TestAnalysisDoesNotAliasNetDelay is the regression test for the aliasing
// bug: the STA pass over cached net delays used to store the caller's netDelay slice
// directly, so an Analysis retained past the call (a report, a Result
// snapshot) silently drifted when the incremental evaluator patched its
// cached delays on the next move. All entry points must copy.
func TestAnalysisDoesNotAliasNetDelay(t *testing.T) {
	des := chainDesign()
	src := []float64{0.5, 0.7}
	for _, tc := range []struct {
		name string
		a    *Analysis
	}{
		{"AnalyzeFromNetDelaysInto-nil", AnalyzeFromNetDelaysInto(des, src, nil, nil)},
		{"AnalyzeFromNetDelaysInto-reused", AnalyzeFromNetDelaysInto(des, src, nil, &Analysis{})},
		{"Graph.AnalyzeInto-reused", NewGraph(des).AnalyzeInto(src, nil, &Analysis{})},
	} {
		critBefore := tc.a.Critical
		nd := append([]float64(nil), tc.a.NetDelay...)
		src[0], src[1] = 99, 99 // the next move patches the cached delays
		for i := range nd {
			if tc.a.NetDelay[i] != nd[i] {
				t.Fatalf("%s: NetDelay[%d] drifted to %v after the source slice was mutated",
					tc.name, i, tc.a.NetDelay[i])
			}
		}
		if tc.a.Critical != critBefore {
			t.Fatalf("%s: Critical drifted", tc.name)
		}
		src[0], src[1] = 0.5, 0.7
	}
}

// TestAnalyzeIntoReuseMatchesFresh pins the pooled path the incremental
// evaluator takes on every move: an Analysis refilled in place after a
// pass with larger delays and scales must equal a fresh pass exactly —
// stale Arrive/Depart values left by the earlier pass would otherwise win
// the max updates.
func TestAnalyzeIntoReuseMatchesFresh(t *testing.T) {
	des := chainDesign()
	pooled := AnalyzeFromNetDelaysInto(des, []float64{9, 9}, []float64{3, 3, 3}, nil)
	nd, scale := []float64{0.5, 0.7}, []float64{1, 0.9, 1.1}
	got := AnalyzeFromNetDelaysInto(des, nd, scale, pooled)
	if got != pooled {
		t.Fatal("the pooled Analysis was not reused")
	}
	want := AnalyzeFromNetDelaysInto(des, nd, scale, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reused analysis %+v != fresh %+v", got, want)
	}
}

// TestElmoreDelayDegenerateNetsZero pins the degenerate-net definition: a
// net with fewer than two pins has no wire and zero delay. Without the
// guard a zero-pin net yielded a NEGATIVE delay (sinkPins = -1).
func TestElmoreDelayDegenerateNetsZero(t *testing.T) {
	p := DefaultParams()
	for degree := 0; degree < 2; degree++ {
		for _, cross := range []bool{false, true} {
			if d := ElmoreDelay(500, cross, degree, p); d != 0 {
				t.Fatalf("degree-%d net (cross=%v) has delay %v, want 0", degree, cross, d)
			}
		}
	}
	if d := ElmoreDelay(500, false, 2, p); d <= 0 {
		t.Fatalf("real net delay %v must stay positive", d)
	}
}

func TestWorstPathsZeroK(t *testing.T) {
	d := &netlist.Design{
		Name: "z",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 10, H: 10, Power: 1, IntrinsicDelay: 1},
			{Name: "b", Kind: netlist.Hard, W: 10, H: 10, Power: 1, IntrinsicDelay: 1},
		},
		Nets:     []*netlist.Net{{Name: "n", Modules: []int{0, 1}}},
		OutlineW: 100, OutlineH: 100, Dies: 1,
	}
	l := floorplan.New(d).Pack()
	a := Analyze(l, nil, DefaultParams())
	if got := a.WorstPaths(0); len(got) != 0 {
		t.Fatalf("k=0 should be empty, got %v", got)
	}
	if got := a.WorstPaths(100); len(got) != 2 {
		t.Fatalf("k>n should clamp, got %d", len(got))
	}
}
