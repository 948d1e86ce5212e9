package timing

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netlist"
)

// naiveAnalyze is the straightforward per-net STA loop, the bit-identity
// reference for Graph.AnalyzeInto: every pass re-derives each net's driver
// from its *netlist.Net and walks its pins.
func naiveAnalyze(des *netlist.Design, netDelay, delayScale []float64) *Analysis {
	nMod := len(des.Modules)
	a := &Analysis{
		NetDelay:    append([]float64(nil), netDelay...),
		Arrive:      make([]float64, nMod),
		Depart:      make([]float64, nMod),
		ModuleDelay: make([]float64, nMod),
	}
	for m, mod := range des.Modules {
		s := 1.0
		if delayScale != nil {
			s = delayScale[m]
		}
		a.ModuleDelay[m] = mod.IntrinsicDelay * s
	}
	for ni, n := range des.Nets {
		if len(n.Modules) < 2 {
			continue
		}
		drv := n.Modules[0]
		for _, m := range n.Modules[1:] {
			if m < drv {
				drv = m
			}
		}
		nd := a.NetDelay[ni]
		for _, m := range n.Modules {
			if m == drv {
				continue
			}
			if in := a.ModuleDelay[drv] + nd; in > a.Arrive[m] {
				a.Arrive[m] = in
			}
			if out := nd + a.ModuleDelay[m]; out > a.Depart[drv] {
				a.Depart[drv] = out
			}
		}
	}
	for m := 0; m < nMod; m++ {
		if th := a.PathThrough(m); th > a.Critical {
			a.Critical = th
		}
	}
	return a
}

// sameAnalysis reports the first field on which got and want differ as
// floats compared with ==, or "" when they are bit-for-bit equal.
func sameAnalysis(got, want *Analysis) string {
	if got.Critical != want.Critical {
		return "Critical"
	}
	for name, pair := range map[string][2][]float64{
		"NetDelay":    {got.NetDelay, want.NetDelay},
		"Arrive":      {got.Arrive, want.Arrive},
		"Depart":      {got.Depart, want.Depart},
		"ModuleDelay": {got.ModuleDelay, want.ModuleDelay},
	} {
		if len(pair[0]) != len(pair[1]) {
			return name + " length"
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				return name
			}
		}
	}
	return ""
}

// flatCaseDesign has every net shape the graph must orient like the
// reference: a driver that is not the first pin, duplicate sink and driver
// pins, a net whose pins are all one module, single-pin and empty nets, a
// terminal-only net and a net mixing terminals with modules.
func flatCaseDesign() *netlist.Design {
	mods := make([]*netlist.Module, 6)
	for m := range mods {
		mods[m] = &netlist.Module{Name: string(rune('a' + m)), Kind: netlist.Hard, W: 10, H: 10,
			Power: 1, IntrinsicDelay: 0.1 * float64(m+1)}
	}
	return &netlist.Design{
		Name: "flat", Dies: 2, OutlineW: 100, OutlineH: 100,
		Modules: mods,
		Nets: []*netlist.Net{
			{Name: "drv-last", Modules: []int{4, 3, 1}},
			{Name: "dup-sink", Modules: []int{2, 5, 5, 0}},
			{Name: "dup-drv", Modules: []int{3, 1, 1, 4}},
			{Name: "self", Modules: []int{2, 2}},
			{Name: "single", Modules: []int{5}},
			{Name: "empty"},
			{Name: "terms", Terminals: []int{0, 1}},
			{Name: "mixed", Modules: []int{5, 0}, Terminals: []int{1}},
		},
		Terminals: []*netlist.Terminal{{Name: "p", X: 0, Y: 50}, {Name: "q", X: 100, Y: 20}},
	}
}

// randomFlatDesign draws modules and nets with random pin lists, duplicates
// and orders included.
func randomFlatDesign(rng *rand.Rand) *netlist.Design {
	nMods := 1 + rng.Intn(12)
	des := &netlist.Design{Name: "rand", Dies: 2, OutlineW: 100, OutlineH: 100}
	for m := 0; m < nMods; m++ {
		des.Modules = append(des.Modules, &netlist.Module{Name: "m", Kind: netlist.Hard, W: 1, H: 1,
			IntrinsicDelay: rng.Float64()})
	}
	for n := rng.Intn(15); n > 0; n-- {
		net := &netlist.Net{Name: "n"}
		for p := rng.Intn(6); p > 0; p-- {
			net.Modules = append(net.Modules, rng.Intn(nMods))
		}
		des.Nets = append(des.Nets, net)
	}
	return des
}

func randomDelays(rng *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = rng.Float64()
	}
	return d
}

// TestGraphMatchesNaiveSTA pins the flat STA pass to the reference loop bit
// for bit, with a nil and a non-nil delay scale, on fresh and on recycled
// Analyses, for the hand-built net shapes and for random designs.
func TestGraphMatchesNaiveSTA(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	designs := []*netlist.Design{flatCaseDesign()}
	for i := 0; i < 200; i++ {
		designs = append(designs, randomFlatDesign(rng))
	}
	for di, des := range designs {
		g := NewGraph(des)
		var pooled *Analysis
		for rep := 0; rep < 3; rep++ {
			nd := randomDelays(rng, len(des.Nets))
			for _, scale := range [][]float64{nil, randomDelays(rng, len(des.Modules))} {
				want := naiveAnalyze(des, nd, scale)
				if f := sameAnalysis(g.AnalyzeInto(nd, scale, nil), want); f != "" {
					t.Fatalf("design %d rep %d: fresh AnalyzeInto differs from the reference in %s", di, rep, f)
				}
				pooled = g.AnalyzeInto(nd, scale, pooled)
				if f := sameAnalysis(pooled, want); f != "" {
					t.Fatalf("design %d rep %d: recycled AnalyzeInto differs from the reference in %s", di, rep, f)
				}
				if f := sameAnalysis(AnalyzeFromNetDelaysInto(des, nd, scale, nil), want); f != "" {
					t.Fatalf("design %d rep %d: AnalyzeFromNetDelaysInto differs from the reference in %s", di, rep, f)
				}
			}
		}
	}
}

// TestGraphNetPins pins the flat module-pin table: every net's pins in pin
// order, duplicates kept, terminal and empty nets empty.
func TestGraphNetPins(t *testing.T) {
	des := flatCaseDesign()
	g := NewGraph(des)
	for ni, n := range des.Nets {
		got := g.NetPins(ni)
		if len(got) != len(n.Modules) {
			t.Fatalf("net %q: %d pins, want %d", n.Name, len(got), len(n.Modules))
		}
		for i, m := range n.Modules {
			if int(got[i]) != m {
				t.Fatalf("net %q pin %d = %d, want %d", n.Name, i, got[i], m)
			}
		}
	}
	// drv-last, dup-sink, dup-drv and mixed carry arcs, each driven by its
	// lowest module pin; self (all pins on the driver), single, empty and
	// terms carry none.
	if !slices.Equal(g.arcNet, []int32{0, 1, 2, 7}) || !slices.Equal(g.arcDrv, []int32{1, 0, 1, 0}) {
		t.Fatalf("arcs on nets %v driven by %v, want [0 1 2 7] driven by [1 0 1 0]", g.arcNet, g.arcDrv)
	}
}
