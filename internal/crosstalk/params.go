// Package crosstalk models crosstalk error behaviour of an N-wire coupled
// interconnect at the level of abstraction used by the paper's HDL-level
// error model (Bai and Dey, VTS 2001).
//
// The model is a first-order RC coupled-line approximation:
//
//   - Each wire i has a ground capacitance Cg[i] and a symmetric coupling
//     capacitance Cc[i][j] to every other wire j.
//   - When a victim wire transitions, opposing aggressor transitions are
//     counted with a Miller factor of 2, quiet aggressors with 1, and
//     same-direction aggressors with 0; the propagation delay is the Elmore
//     estimate ln(2)*R*(Cg + sum m_j*Cc[i][j]). A delay error occurs when the
//     delay exceeds the sampling slack, in which case the receiver latches
//     the wire's previous value.
//   - When a victim wire is stable, switching aggressors couple charge onto
//     it; the glitch peak is the charge-divider estimate
//     Vdd * Cpush / (Cg + Ctot), where Cpush is the net coupling to
//     aggressors switching away from the victim's level and Ctot the wire's
//     total coupling. A glitch error occurs when the peak exceeds the
//     receiver threshold, in which case the receiver latches the flipped bit.
//
// Both error criteria are monotone in the victim's net coupling capacitance
// and, under a maximum-aggressor pattern, reduce to the detectability
// criterion of Cuviello et al. (ICCAD 1999) used by the paper: an error
// occurs if and only if the victim's net coupling capacitance exceeds a
// threshold Cth. Thresholds are derived once from the defect-free nominal
// parameters (DeriveThresholds) and held fixed while perturbed (defective)
// parameter sets are simulated.
package crosstalk

import (
	"errors"
	"fmt"
	"math"
)

// Ln2 is the Elmore 50%-point constant.
const ln2 = 0.6931471805599453

// Default electrical constants for the nominal interconnect geometry. The
// absolute values are representative of a late-1990s deep-submicron global
// bus (the paper's context); only ratios matter to the reproduced results.
const (
	DefaultCg        = 100e-15 // F, per-wire ground capacitance
	DefaultCcAdj     = 50e-15  // F, nominal coupling between adjacent wires
	DefaultFalloff   = 2.0     // coupling ~ CcAdj / distance^falloff
	DefaultRDrive    = 1e3     // ohm, driver output resistance
	DefaultVdd       = 1.8     // V
	DefaultCthFactor = 1.55    // Cth = factor * max nominal net coupling
	// DefaultGlitchMargin sets the glitch criterion slightly above the
	// delay criterion: a receiver latches a glitch only when the coupled
	// charge corresponds to a net coupling of margin*Cth, whereas a delay
	// error appears right at Cth. Marginal defects in between are
	// delay-only — exactly the population that escapes a slow external
	// tester and motivates at-speed testing.
	DefaultGlitchMargin = 1.15
)

// MaxWidth is the widest bus a parameter set may describe: bus words
// (logic.Word) carry at most 64 wires.
const MaxWidth = 64

// Params describes the electrical parameters of one N-wire bus: the
// capacitance network plus the drive strength at each end. It corresponds to
// the "parameter file containing the values of the coupling capacitance
// among interconnects" consumed by the paper's error model.
type Params struct {
	Width  int         `json:"width"`
	Cg     []float64   `json:"cg"`      // per-wire ground capacitance (F)
	Cc     [][]float64 `json:"cc"`      // symmetric coupling matrix (F), zero diagonal
	RDrive [2]float64  `json:"r_drive"` // driver resistance per maf.Direction (ohm)
	Vdd    float64     `json:"vdd"`     // supply voltage (V)
}

// Nominal returns the defect-free parameter set for a width-wire bus using
// the default geometry: uniform ground capacitance and coupling that falls
// off with the square of wire distance. Edge wires therefore have a smaller
// net coupling than centre wires, which is what produces the coverage shape
// of the paper's Fig. 11.
func Nominal(width int) *Params {
	p := &Params{
		Width:  width,
		Cg:     make([]float64, width),
		Cc:     make([][]float64, width),
		RDrive: [2]float64{DefaultRDrive, DefaultRDrive},
		Vdd:    DefaultVdd,
	}
	for i := range p.Cg {
		p.Cg[i] = DefaultCg
		p.Cc[i] = make([]float64, width)
	}
	for i := 0; i < width; i++ {
		for j := i + 1; j < width; j++ {
			d := float64(j - i)
			c := DefaultCcAdj / math.Pow(d, DefaultFalloff)
			p.Cc[i][j] = c
			p.Cc[j][i] = c
		}
	}
	return p
}

// Validate checks structural and physical consistency of p.
func (p *Params) Validate() error {
	if p.Width < 2 || p.Width > MaxWidth {
		return fmt.Errorf("crosstalk: width %d outside [2, %d] wires", p.Width, MaxWidth)
	}
	if len(p.Cg) != p.Width || len(p.Cc) != p.Width {
		return errors.New("crosstalk: capacitance arrays do not match width")
	}
	// Every positivity check is written !(x > 0), so that it refuses NaN:
	// the risk masks and the envelope rely on Cg, RDrive and the thresholds
	// being ordered numbers.
	for i, cg := range p.Cg {
		if !(cg > 0) {
			return fmt.Errorf("crosstalk: wire %d ground capacitance %g is not positive", i, cg)
		}
	}
	// Every row's length is checked before any entry is read, because the
	// symmetry check below reads Cc[j][i] from rows after row i.
	for i := range p.Cc {
		if len(p.Cc[i]) != p.Width {
			return fmt.Errorf("crosstalk: coupling row %d has %d entries, want %d", i, len(p.Cc[i]), p.Width)
		}
	}
	// Each off-diagonal pair is checked once, from its upper-triangle entry:
	// once Cc[j][i] equals a non-negative Cc[i][j], it is non-negative too.
	// A NaN on either side fails the equality.
	for i, row := range p.Cc {
		if row[i] != 0 {
			return fmt.Errorf("crosstalk: nonzero self-coupling on wire %d", i)
		}
		for j := i + 1; j < len(row); j++ {
			if row[j] < 0 {
				return fmt.Errorf("crosstalk: negative coupling Cc[%d][%d] = %g", i, j, row[j])
			}
			if row[j] != p.Cc[j][i] {
				return fmt.Errorf("crosstalk: asymmetric coupling Cc[%d][%d] != Cc[%d][%d]", i, j, j, i)
			}
		}
	}
	for d, r := range p.RDrive {
		if !(r > 0) {
			return fmt.Errorf("crosstalk: driver resistance for direction %d is %g, not positive", d, r)
		}
	}
	if !(p.Vdd > 0) {
		return fmt.Errorf("crosstalk: Vdd %g is not positive", p.Vdd)
	}
	return nil
}

// Clone returns a deep copy of p, suitable for perturbation into a defect.
func (p *Params) Clone() *Params {
	q := &Params{
		Width:  p.Width,
		Cg:     append([]float64(nil), p.Cg...),
		Cc:     make([][]float64, len(p.Cc)),
		RDrive: p.RDrive,
		Vdd:    p.Vdd,
	}
	for i := range p.Cc {
		q.Cc[i] = append([]float64(nil), p.Cc[i]...)
	}
	return q
}

// NetCoupling returns wire i's net coupling capacitance, the sum of its
// coupling to every other wire. This is the quantity the detectability
// criterion of [8] thresholds.
func (p *Params) NetCoupling(i int) float64 {
	var sum float64
	for j, c := range p.Cc[i] {
		if j != i {
			sum += c
		}
	}
	return sum
}

// MaxNetCoupling returns the largest net coupling over all wires.
func (p *Params) MaxNetCoupling() float64 {
	var m float64
	for i := 0; i < p.Width; i++ {
		if c := p.NetCoupling(i); c > m {
			m = c
		}
	}
	return m
}

// Thresholds fixes the error-decision constants of a bus. They are derived
// from the nominal (defect-free) parameters and remain constant while
// perturbed parameter sets are simulated, mirroring how the paper's Cth is a
// property of the acceptable delay length and glitch height, not of the
// defect under test.
type Thresholds struct {
	// Cth is the detectability threshold on net coupling capacitance: under
	// a maximum-aggressor pattern, a victim errs iff its net coupling
	// exceeds Cth.
	Cth float64 `json:"cth"`
	// GlitchFrac is the receiver's glitch-latching threshold as a fraction
	// of Vdd.
	GlitchFrac float64 `json:"glitch_frac"`
	// Slack is the sampling slack per drive direction: a victim transition
	// arriving later than this is latched as its previous value.
	Slack [2]float64 `json:"slack"`
	// Cg0 is the reference ground capacitance the derivation assumed.
	Cg0 float64 `json:"cg0"`
}

// DeriveThresholds computes the threshold set from nominal parameters.
// cthFactor scales the detectability threshold relative to the largest
// nominal net coupling; it must exceed 1 so that the defect-free bus is
// error-free under every pattern. Passing cthFactor <= 0 selects
// DefaultCthFactor.
//
// The per-direction sampling slacks are derived so that the MA-pattern
// delay criterion trips at exactly Cth, making the MA tests necessary and
// sufficient for the C > Cth detectability criterion of [8]:
//
//	delay:   ln2*R*(Cg0 + 2*Ci) > Slack      with Slack = ln2*R*(Cg0 + 2*Cth)
//
// The glitch criterion trips at the slightly higher DefaultGlitchMargin*Cth
// (receivers need more coupled charge to latch a transient than to miss a
// sampling deadline):
//
//	glitch:  Ci/(Cg0+Ci) > GlitchFrac        with GlitchFrac = mCth/(Cg0+mCth)
func DeriveThresholds(nominal *Params, cthFactor float64) (Thresholds, error) {
	return DeriveThresholdsMargin(nominal, cthFactor, 0)
}

// DeriveThresholdsMargin is DeriveThresholds with an explicit glitch margin
// (the ratio of the glitch-latching point to Cth). Passing glitchMargin <= 0
// selects DefaultGlitchMargin; values below 1 make receivers latch glitches
// from defects that do not even reach the delay criterion. A factor that is
// NaN or infinite is refused by name, before any default is substituted.
func DeriveThresholdsMargin(nominal *Params, cthFactor, glitchMargin float64) (Thresholds, error) {
	if err := nominal.Validate(); err != nil {
		return Thresholds{}, err
	}
	if math.IsNaN(cthFactor) || math.IsInf(cthFactor, 0) {
		return Thresholds{}, fmt.Errorf("crosstalk: cthFactor %g is not finite", cthFactor)
	}
	if cthFactor <= 0 {
		cthFactor = DefaultCthFactor
	}
	if cthFactor <= 1 {
		return Thresholds{}, fmt.Errorf("crosstalk: cthFactor %g must exceed 1", cthFactor)
	}
	if math.IsNaN(glitchMargin) || math.IsInf(glitchMargin, 0) {
		return Thresholds{}, fmt.Errorf("crosstalk: glitchMargin %g is not finite", glitchMargin)
	}
	if glitchMargin <= 0 {
		glitchMargin = DefaultGlitchMargin
	}
	cg0 := nominal.Cg[0]
	for i, cg := range nominal.Cg {
		if math.Abs(cg-cg0) > 1e-21 {
			return Thresholds{}, fmt.Errorf("crosstalk: threshold derivation requires uniform ground capacitance, wire %d differs", i)
		}
	}
	cth := cthFactor * nominal.MaxNetCoupling()
	gcth := glitchMargin * cth
	th := Thresholds{
		Cth:        cth,
		GlitchFrac: gcth / (cg0 + gcth),
		Cg0:        cg0,
	}
	for d, r := range nominal.RDrive {
		th.Slack[d] = ln2 * r * (cg0 + 2*cth)
	}
	return th, nil
}

// Validate checks th for physical consistency. As in Params.Validate, the
// checks are written so that they refuse NaN.
func (th Thresholds) Validate() error {
	if !(th.Cth > 0) {
		return fmt.Errorf("crosstalk: Cth %g is not positive", th.Cth)
	}
	if !(th.GlitchFrac > 0 && th.GlitchFrac < 1) {
		return fmt.Errorf("crosstalk: glitch fraction %g outside (0,1)", th.GlitchFrac)
	}
	for d, s := range th.Slack {
		if !(s > 0) {
			return fmt.Errorf("crosstalk: slack for direction %d is %g, not positive", d, s)
		}
	}
	if !(th.Cg0 > 0) {
		return fmt.Errorf("crosstalk: reference Cg %g is not positive", th.Cg0)
	}
	return nil
}
