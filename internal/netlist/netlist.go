// Package netlist models the block-level design input to the floorplanner:
// modules (hard or soft IP blocks with area and nominal power), nets
// connecting module pins and chip-level terminal pins, and the design-level
// queries (connectivity, degree distributions, power budget) the optimizer
// and the benchmark generators need.
//
// The model mirrors the GSRC/IBM-HB+ block-level benchmark conventions used
// by the paper's Table 1: a design has a fixed die outline, a set of
// modules with scale factors applied, nets, and terminal (I/O) pins on the
// outline boundary.
package netlist

import (
	"fmt"
	"sort"
)

// ModuleKind distinguishes hard macros (fixed footprint, may only rotate)
// from soft modules (fixed area, adjustable aspect ratio).
type ModuleKind int

const (
	// Hard modules have a fixed width x height footprint.
	Hard ModuleKind = iota
	// Soft modules have fixed area but a flexible aspect ratio within
	// [MinAspect, MaxAspect].
	Soft
)

func (k ModuleKind) String() string {
	switch k {
	case Hard:
		return "hard"
	case Soft:
		return "soft"
	default:
		return fmt.Sprintf("ModuleKind(%d)", int(k))
	}
}

// Module is a block-level IP module. Designers treat these as black boxes:
// only area, aspect limits, pin count, and nominal power are known, matching
// the threat model in Sec. 2.2 of the paper.
type Module struct {
	Name string
	Kind ModuleKind

	// W, H is the footprint in um. For soft modules this is the current
	// (resizable) footprint; Area() stays constant across resizes.
	W, H float64

	// MinAspect and MaxAspect bound W/H for soft modules.
	MinAspect, MaxAspect float64

	// Power is the nominal power in Watts at the 1.0 V reference voltage.
	Power float64

	// IntrinsicDelay is the module's internal critical delay in ns at the
	// 1.0 V reference, scaled by the voltage assignment (see internal/volt).
	IntrinsicDelay float64

	// Sensitive marks security-critical modules (e.g. crypto cores) that
	// the TSC attacks of Sec. 5 target.
	Sensitive bool
}

// fitsOutline reports whether the module has a footprint inside a w x h
// outline: a hard module in either orientation, a soft module at some aspect
// ratio within its bounds, in either orientation (the floorplanner rotates
// soft modules too). A module that fits nowhere would be clamped by the
// packer and could never be placed legally. The relative slack absorbs the
// round-off of the soft footprint's square roots.
func (m *Module) fitsOutline(w, h float64) bool {
	const slack = 1 + 1e-9
	if m.Kind != Soft {
		return (m.W <= w*slack && m.H <= h*slack) || (m.H <= w*slack && m.W <= h*slack)
	}
	// At aspect r = W/H the footprint is sqrt(A r) x sqrt(A/r), which fits
	// a w x h outline exactly for r in [A/h^2, w^2/A].
	a := m.Area()
	fits := func(w, h float64) bool {
		return max(m.MinAspect, a/(h*h)) <= min(m.MaxAspect, w*w/a)*slack
	}
	return fits(w, h) || fits(h, w)
}

// Area returns the module area in um^2.
func (m *Module) Area() float64 { return m.W * m.H }

// PowerDensity returns the nominal power density in W/um^2.
func (m *Module) PowerDensity() float64 {
	a := m.Area()
	if a <= 0 {
		return 0
	}
	return m.Power / a
}

// Resize sets a soft module's footprint to the given aspect ratio (W/H),
// preserving area and clamping the ratio to [MinAspect, MaxAspect]. It is a
// no-op for hard modules.
func (m *Module) Resize(aspect float64) {
	if m.Kind != Soft {
		return
	}
	if aspect < m.MinAspect {
		aspect = m.MinAspect
	}
	if aspect > m.MaxAspect {
		aspect = m.MaxAspect
	}
	area := m.Area()
	m.H = sqrtPos(area / aspect)
	m.W = area / m.H
}

// Rotate swaps the module footprint (legal for hard and soft modules).
func (m *Module) Rotate() { m.W, m.H = m.H, m.W }

func sqrtPos(v float64) float64 {
	if v <= 0 {
		return 0
	}
	// local sqrt to avoid importing math for one call site
	x := v
	for i := 0; i < 40; i++ {
		x = 0.5 * (x + v/x)
	}
	return x
}

// Terminal is a chip-level I/O pin fixed on the die outline.
type Terminal struct {
	Name string
	X, Y float64 // position on the outline, in um
}

// Net connects a set of modules (by index into Design.Modules) and a set of
// terminals (by index into Design.Terminals).
type Net struct {
	Name      string
	Modules   []int
	Terminals []int
}

// Degree returns the number of pins on the net.
func (n *Net) Degree() int { return len(n.Modules) + len(n.Terminals) }

// Design is a complete block-level design: modules, nets, terminals, and the
// fixed per-die outline for the two-die 3D stack.
type Design struct {
	Name      string
	Modules   []*Module
	Nets      []*Net
	Terminals []*Terminal

	// OutlineW, OutlineH is the fixed outline of EACH die in um. The paper
	// uses fixed-outline floorplanning (Sec. 7: "resulting die outlines are
	// fixed").
	OutlineW, OutlineH float64

	// Dies is the stack height; the paper studies two dies, face-to-back.
	Dies int
}

// TotalPower returns the design's nominal power budget in W at 1.0 V.
func (d *Design) TotalPower() float64 {
	s := 0.0
	for _, m := range d.Modules {
		s += m.Power
	}
	return s
}

// TotalModuleArea returns the sum of module areas in um^2.
func (d *Design) TotalModuleArea() float64 {
	s := 0.0
	for _, m := range d.Modules {
		s += m.Area()
	}
	return s
}

// OutlineArea returns the total placement area across all dies in um^2.
func (d *Design) OutlineArea() float64 {
	return d.OutlineW * d.OutlineH * float64(d.Dies)
}

// Utilization returns module area / available area, the packing difficulty.
func (d *Design) Utilization() float64 {
	oa := d.OutlineArea()
	if oa <= 0 {
		return 0
	}
	return d.TotalModuleArea() / oa
}

// HardCount and SoftCount report the module mix.
func (d *Design) HardCount() int {
	n := 0
	for _, m := range d.Modules {
		if m.Kind == Hard {
			n++
		}
	}
	return n
}

// SoftCount returns the number of soft modules.
func (d *Design) SoftCount() int { return len(d.Modules) - d.HardCount() }

// ModuleIndex returns the index of the named module, or -1.
func (d *Design) ModuleIndex(name string) int {
	for i, m := range d.Modules {
		if m.Name == name {
			return i
		}
	}
	return -1
}

// NetsOfModule returns the indices of all nets touching module mi, in order.
func (d *Design) NetsOfModule(mi int) []int {
	var out []int
	for ni, n := range d.Nets {
		for _, m := range n.Modules {
			if m == mi {
				out = append(out, ni)
				break
			}
		}
	}
	return out
}

// AdjacencyCount returns, for each module pair connected by at least one
// net, the number of shared nets. Keys are [2]int with i < j.
func (d *Design) AdjacencyCount() map[[2]int]int {
	adj := make(map[[2]int]int)
	for _, n := range d.Nets {
		for a := 0; a < len(n.Modules); a++ {
			for b := a + 1; b < len(n.Modules); b++ {
				i, j := n.Modules[a], n.Modules[b]
				if i == j {
					continue
				}
				if i > j {
					i, j = j, i
				}
				adj[[2]int{i, j}]++
			}
		}
	}
	return adj
}

// Validate checks structural invariants and returns the first violation.
func (d *Design) Validate() error {
	if d.OutlineW <= 0 || d.OutlineH <= 0 {
		return fmt.Errorf("netlist: non-positive outline %gx%g", d.OutlineW, d.OutlineH)
	}
	if d.Dies < 1 {
		return fmt.Errorf("netlist: need at least one die, got %d", d.Dies)
	}
	if len(d.Modules) == 0 {
		return fmt.Errorf("netlist: design %q has no modules", d.Name)
	}
	names := make(map[string]bool, len(d.Modules))
	for i, m := range d.Modules {
		if m == nil {
			return fmt.Errorf("netlist: nil module at index %d", i)
		}
		if m.Name == "" {
			return fmt.Errorf("netlist: unnamed module at index %d", i)
		}
		if names[m.Name] {
			return fmt.Errorf("netlist: duplicate module name %q", m.Name)
		}
		names[m.Name] = true
		if m.W <= 0 || m.H <= 0 {
			return fmt.Errorf("netlist: module %q has non-positive footprint %gx%g", m.Name, m.W, m.H)
		}
		if m.Power < 0 {
			return fmt.Errorf("netlist: module %q has negative power", m.Name)
		}
		if m.Kind == Soft && (m.MinAspect <= 0 || m.MaxAspect < m.MinAspect) {
			return fmt.Errorf("netlist: module %q has invalid aspect bounds [%g,%g]", m.Name, m.MinAspect, m.MaxAspect)
		}
		if !m.fitsOutline(d.OutlineW, d.OutlineH) {
			if m.Kind == Soft {
				return fmt.Errorf("netlist: soft module %q (area %g um^2) fits the %gx%g outline at no aspect ratio in [%g,%g]",
					m.Name, m.Area(), d.OutlineW, d.OutlineH, m.MinAspect, m.MaxAspect)
			}
			return fmt.Errorf("netlist: module %q (%gx%g) fits the %gx%g outline in neither orientation",
				m.Name, m.W, m.H, d.OutlineW, d.OutlineH)
		}
	}
	for ni, n := range d.Nets {
		if n == nil {
			return fmt.Errorf("netlist: nil net at index %d", ni)
		}
		if n.Degree() < 2 {
			return fmt.Errorf("netlist: net %q (index %d) has degree %d < 2", n.Name, ni, n.Degree())
		}
		for _, mi := range n.Modules {
			if mi < 0 || mi >= len(d.Modules) {
				return fmt.Errorf("netlist: net %q references module %d out of range", n.Name, mi)
			}
		}
		for _, ti := range n.Terminals {
			if ti < 0 || ti >= len(d.Terminals) {
				return fmt.Errorf("netlist: net %q references terminal %d out of range", n.Name, ti)
			}
		}
	}
	for _, t := range d.Terminals {
		//lint:floateq input validation: terminal coordinates must sit exactly on the declared outline, both read from the same design
		onX := t.X == 0 || t.X == d.OutlineW
		//lint:floateq input validation: terminal coordinates must sit exactly on the declared outline, both read from the same design
		onY := t.Y == 0 || t.Y == d.OutlineH
		inX := t.X >= 0 && t.X <= d.OutlineW
		inY := t.Y >= 0 && t.Y <= d.OutlineH
		if !((onX && inY) || (onY && inX)) {
			return fmt.Errorf("netlist: terminal %q at (%g,%g) not on outline boundary", t.Name, t.X, t.Y)
		}
	}
	return nil
}

// DegreeHistogram returns net degree -> count, with keys sorted ascending in
// DegreeList.
func (d *Design) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for _, n := range d.Nets {
		h[n.Degree()]++
	}
	return h
}

// SortedModuleNames returns all module names sorted lexicographically
// (useful for deterministic reporting).
func (d *Design) SortedModuleNames() []string {
	out := make([]string, len(d.Modules))
	for i, m := range d.Modules {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the design: modules, nets and terminals are
// copied by value, so the copy shares nothing with d. The floorplanner
// clones its input once and only reads the copy; soft-module reshaping and
// rotation live in the floorplan's own state, never in the modules.
func (d *Design) Clone() *Design {
	c := &Design{
		Name:     d.Name,
		OutlineW: d.OutlineW, OutlineH: d.OutlineH,
		Dies: d.Dies,
	}
	c.Modules = make([]*Module, len(d.Modules))
	for i, m := range d.Modules {
		mm := *m
		c.Modules[i] = &mm
	}
	c.Nets = make([]*Net, len(d.Nets))
	for i, n := range d.Nets {
		nn := &Net{Name: n.Name}
		nn.Modules = append([]int(nil), n.Modules...)
		nn.Terminals = append([]int(nil), n.Terminals...)
		c.Nets[i] = nn
	}
	c.Terminals = make([]*Terminal, len(d.Terminals))
	for i, t := range d.Terminals {
		tt := *t
		c.Terminals[i] = &tt
	}
	return c
}
