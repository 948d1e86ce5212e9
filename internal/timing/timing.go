// Package timing estimates timing paths for block-level 3D floorplans: net
// delays via Elmore models of the placed wires (including TSV parasitics for
// cross-die nets), module delays from their intrinsic values scaled by the
// voltage assignment, and a static timing analysis that yields the critical
// delay and per-module slacks. The voltage-assignment stage (internal/volt)
// consumes the slacks, exactly as the paper describes: "the prospects for
// voltage assignment depend primarily on timing slacks".
//
// Block-level IP modules are registered at their boundaries, so a timing
// path is one hop: source module internal delay + Elmore net delay + sink
// module internal delay, and the critical delay is the worst hop. This is
// the standard floorplan-stage model for black-box IP (the paper's Sec. 2.2
// threat model: only basic module properties are known) and it lands the
// critical delays in the paper's reported range (Table 2: 0.78 - 3.8 ns).
package timing

import (
	"math"
	"slices"

	"repro/internal/floorplan"
	"repro/internal/netlist"
)

// Params holds the interconnect parasitics. Units: resistance kOhm,
// capacitance fF, lengths um; kOhm*fF = ps. Defaults model a 90 nm node,
// matching the paper's voltage-scaling data point.
type Params struct {
	RWire   float64 // kOhm per um
	CWire   float64 // fF per um
	RDriver float64 // kOhm, driving-point resistance
	CPin    float64 // fF per sink pin
	RTSV    float64 // kOhm per TSV
	CTSV    float64 // fF per TSV
	VertLen float64 // um, wirelength detour charged to a cross-die net
}

// DefaultParams returns 90 nm-class parasitics.
func DefaultParams() Params {
	return Params{
		RWire:   0.08e-3, // 0.08 Ohm/um
		CWire:   0.2,     // 0.2 fF/um
		RDriver: 1.0,     // 1 kOhm
		CPin:    2.0,     // 2 fF
		RTSV:    0.05e-3, // 50 mOhm
		CTSV:    50.0,    // 50 fF
		VertLen: 50.0,    // um through the bond layer
	}
}

// Analysis is the result of one STA pass over a layout.
type Analysis struct {
	// NetDelay[n] is net n's Elmore delay in ns.
	NetDelay []float64
	// Arrive[m] is the worst incoming stage into module m: the largest
	// (driver delay + net delay) over nets driving m, in ns.
	Arrive []float64
	// Depart[m] is the worst outgoing stage from module m: the largest
	// (net delay + sink delay) over nets m drives, in ns.
	Depart []float64
	// ModuleDelay[m] is the voltage-scaled module delay used.
	ModuleDelay []float64
	// Critical is the design's critical (single-hop) path delay in ns.
	Critical float64
}

// Analyze runs Elmore estimation and single-hop STA over the layout.
// delayScale[m] multiplies module m's intrinsic delay (nil = all 1.0, the
// 1.0 V reference).
func Analyze(l *floorplan.Layout, delayScale []float64, p Params) *Analysis {
	netDelay := make([]float64, len(l.Design.Nets))
	for ni := range l.Design.Nets {
		netDelay[ni] = NetElmore(l, ni, p)
	}
	// Hand the just-built slice in as the copy destination too, so the
	// Into form's defensive copy degenerates to a no-op self-copy.
	return AnalyzeFromNetDelaysInto(l.Design, netDelay, delayScale, &Analysis{NetDelay: netDelay})
}

// AnalyzeFromNetDelaysInto runs the STA pass over precomputed per-net
// Elmore delays (in ns), bypassing the geometric estimation: given the
// delays Analyze would compute, it returns an identical Analysis. It reuses
// the slices of a previous Analysis (nil allocates a fresh one) and copies
// netDelay, never retaining it. It flattens the design into a Graph for
// this one pass; a caller that runs many passes over one design (the
// incremental cost evaluator runs one to two per annealing move) builds the
// Graph once and calls Graph.AnalyzeInto instead.
func AnalyzeFromNetDelaysInto(des *netlist.Design, netDelay []float64, delayScale []float64, into *Analysis) *Analysis {
	return NewGraph(des).AnalyzeInto(netDelay, delayScale, into)
}

// Graph is a design flattened for repeated STA passes: the modules'
// intrinsic delays, each net's module pins in one flat table, and each
// net's timing arcs. Nets are oriented from their lowest-index module pin
// to the others (the conventional driver heuristic for direction-less
// benchmarks), so the driver and sinks are constant facts of the design
// and are derived once here instead of on every pass. A Graph is read-only
// after NewGraph and does not retain the design.
type Graph struct {
	intrinsic []float64 // per-module intrinsic delay, ns

	// Net ni's module pins, in pin order and with any duplicates, are
	// pins[pinStart[ni]:pinStart[ni+1]].
	pinStart []int32
	pins     []int32

	// One arc group per net with a driver and at least one sink, in net
	// order: net arcNet[k] is driven by arcDrv[k] and feeds
	// sinks[sinkStart[k]:sinkStart[k+1]] (every pin but the driver's, in
	// pin order). Listing only these nets, with the driver's own pins
	// dropped, keeps the per-move pass to the arcs themselves.
	arcNet    []int32
	arcDrv    []int32
	sinkStart []int32
	sinks     []int32
}

// NewGraph flattens des for STA.
func NewGraph(des *netlist.Design) *Graph {
	nPins, nArcs := 0, 0
	for _, n := range des.Nets {
		nPins += len(n.Modules)
		if len(n.Modules) >= 2 {
			nArcs++
		}
	}
	g := &Graph{
		intrinsic: make([]float64, len(des.Modules)),
		pinStart:  make([]int32, len(des.Nets)+1),
		pins:      make([]int32, 0, nPins),
		arcNet:    make([]int32, 0, nArcs),
		arcDrv:    make([]int32, 0, nArcs),
		sinkStart: make([]int32, 1, nArcs+1),
		sinks:     make([]int32, 0, nPins),
	}
	for m, mod := range des.Modules {
		g.intrinsic[m] = mod.IntrinsicDelay
	}
	for ni, n := range des.Nets {
		for _, m := range n.Modules {
			g.pins = append(g.pins, int32(m))
		}
		g.pinStart[ni+1] = int32(len(g.pins))
		if len(n.Modules) < 2 {
			continue
		}
		drv := slices.Min(n.Modules)
		first := len(g.sinks)
		for _, m := range n.Modules {
			if m != drv {
				g.sinks = append(g.sinks, int32(m))
			}
		}
		if len(g.sinks) == first {
			continue // every pin is the driver's: no arc
		}
		g.arcNet = append(g.arcNet, int32(ni))
		g.arcDrv = append(g.arcDrv, int32(drv))
		g.sinkStart = append(g.sinkStart, int32(len(g.sinks)))
	}
	return g
}

// NetPins returns net ni's module pins in pin order. The slice aliases the
// graph's table and must not be modified.
func (g *Graph) NetPins(ni int) []int32 {
	return g.pins[g.pinStart[ni]:g.pinStart[ni+1]]
}

// AnalyzeInto runs the single-hop STA pass over per-net Elmore delays (in
// ns, indexed like the design's nets). delayScale[m] multiplies module m's
// intrinsic delay (nil = all 1.0). It reuses the slices of `into` (nil
// allocates a fresh Analysis) and returns it; its previous contents are
// overwritten. netDelay is copied into the Analysis, never aliased: the
// incremental cost evaluator patches its cached per-net delays in place on
// every annealing move, and an Analysis retained past the call (a report, a
// snapshot in a Result) must not drift with those patches.
func (g *Graph) AnalyzeInto(netDelay []float64, delayScale []float64, into *Analysis) *Analysis {
	nMod := len(g.intrinsic)
	a := into
	if a == nil {
		a = &Analysis{}
	}
	if cap(a.NetDelay) < len(netDelay) {
		a.NetDelay = make([]float64, len(netDelay))
	}
	a.NetDelay = a.NetDelay[:len(netDelay)]
	copy(a.NetDelay, netDelay)
	a.Arrive = resizeZeroed(a.Arrive, nMod)
	a.Depart = resizeZeroed(a.Depart, nMod)
	a.ModuleDelay = resizeZeroed(a.ModuleDelay, nMod)
	a.Critical = 0
	md := a.ModuleDelay
	if delayScale == nil {
		copy(md, g.intrinsic)
	} else {
		for m, d := range g.intrinsic {
			md[m] = d * delayScale[m]
		}
	}
	arrive, depart := a.Arrive, a.Depart
	for k, ni := range g.arcNet {
		drv := g.arcDrv[k]
		nd := a.NetDelay[ni]
		in := md[drv] + nd
		dep := depart[drv]
		for _, m := range g.sinks[g.sinkStart[k]:g.sinkStart[k+1]] {
			if in > arrive[m] {
				arrive[m] = in
			}
			if out := nd + md[m]; out > dep {
				dep = out
			}
		}
		depart[drv] = dep
	}
	for m := 0; m < nMod; m++ {
		if th := a.PathThrough(m); th > a.Critical {
			a.Critical = th
		}
	}
	return a
}

// resizeZeroed returns s resized to n elements, all zero.
func resizeZeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// PathThrough returns the longest single-hop path touching module m in ns:
// its own delay plus the worse of its worst incoming and outgoing stages.
func (a *Analysis) PathThrough(m int) float64 {
	return a.ModuleDelay[m] + math.Max(a.Arrive[m], a.Depart[m])
}

// Slack returns module m's slack against a target clock period in ns.
func (a *Analysis) Slack(m int, target float64) float64 {
	return target - a.PathThrough(m)
}

// NetElmore returns net ni's Elmore delay in ns for the given layout.
// The model: a driver of resistance RDriver charges the net's distributed
// RC (length = half-perimeter wirelength plus the vertical detour for
// cross-die nets) and the sink pin loads; TSVs on cross-die nets add their
// lumped resistance and capacitance.
func NetElmore(l *floorplan.Layout, ni int, p Params) float64 {
	n := l.Design.Nets[ni]
	length := l.NetHPWL(n, 0)
	crossDie := false
	die0 := -1
	for _, mi := range n.Modules {
		if die0 == -1 {
			die0 = l.DieOf[mi]
		} else if l.DieOf[mi] != die0 {
			crossDie = true
			break
		}
	}
	return ElmoreDelay(length, crossDie, n.Degree(), p)
}

// ElmoreDelay returns the Elmore delay (ns) of a net from its geometric
// summary: the half-perimeter wirelength in um WITHOUT the vertical detour
// (added here for cross-die nets), whether the net spans dies, and its pin
// degree. NetElmore is exactly ElmoreDelay over the layout-derived summary;
// the incremental evaluator calls this directly on its cached geometry.
//
// Degenerate nets (fewer than two pins) have no wire to charge and are
// defined to have zero delay — without the guard a zero-pin net's
// sinkPins = -1 would yield a negative capacitance and a negative delay,
// which the STA pass skips but aggregate proxies (TotalNetDelay,
// MaxNetDelay) and the evaluators' cached WL/delay terms would absorb.
func ElmoreDelay(length float64, crossDie bool, degree int, p Params) float64 {
	if degree < 2 {
		return 0
	}
	tsvs := 0
	if crossDie {
		tsvs = 1
		length += p.VertLen
	}
	sinkPins := float64(degree - 1)
	cTotal := p.CWire*length + p.CPin*sinkPins + p.CTSV*float64(tsvs)
	// Driver sees the full load; the distributed wire adds R*C/2; the TSV
	// adds its lumped RC charging the downstream half of the load.
	ps := p.RDriver*cTotal +
		0.5*p.RWire*length*(p.CWire*length+p.CPin*sinkPins) +
		p.RTSV*float64(tsvs)*cTotal/2
	return ps * 1e-3 // ps -> ns
}

// WorstPaths returns the k modules with the longest paths through them,
// sorted descending — the voltage-assignment stage protects these first.
func (a *Analysis) WorstPaths(k int) []int {
	n := len(a.ModuleDelay)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if k > n {
		k = n
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if a.PathThrough(idx[j]) > a.PathThrough(idx[best]) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// TotalNetDelay returns the sum of all net delays (an optimization proxy).
func (a *Analysis) TotalNetDelay() float64 {
	s := 0.0
	for _, d := range a.NetDelay {
		s += d
	}
	return s
}

// MaxNetDelay returns the largest single net delay.
func (a *Analysis) MaxNetDelay() float64 {
	m := 0.0
	for _, d := range a.NetDelay {
		m = math.Max(m, d)
	}
	return m
}
