// Package defects generates crosstalk defect libraries by the procedure of
// the paper's Fig. 10: the nominal coupling capacitances of a bus are
// randomly perturbed according to a Gaussian defect distribution, and a
// perturbation is recorded as a defect when it is large enough to be
// detectable by any test — i.e. when the net coupling capacitance on some
// wire exceeds the threshold Cth (the criterion of Cuviello et al., ICCAD
// 1999). Generation repeats until the requested number of defects has been
// accumulated.
//
// The paper's experiments use a Gaussian distribution of capacitance
// variation with a 3-sigma point of 150% (sigma = 50%) and 1000 defects per
// bus; those are the package defaults.
package defects

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/crosstalk"
)

// Defaults matching the paper's experimental setup (§5).
const (
	// DefaultSigma is the standard deviation of the per-capacitance
	// variation: the paper's "3-delta point of 150%".
	DefaultSigma = 0.50
	// DefaultLibrarySize is the number of defects per bus.
	DefaultLibrarySize = 1000
	// maxAttemptsPerDefect bounds the rejection-sampling loop so that an
	// unsatisfiable configuration (e.g. an enormous Cth) fails loudly
	// instead of spinning forever.
	maxAttemptsPerDefect = 2_000_000
)

// Defect is one recorded perturbation of the bus capacitances.
type Defect struct {
	// ID is the defect's index within its library.
	ID int
	// Params is the perturbed parameter set.
	Params *crosstalk.Params
	// OverThreshold lists the wires whose net coupling exceeds Cth; these
	// are the victims on which the defect can produce an error under a
	// maximum-aggressor pattern.
	OverThreshold []int
	// Attempts is how many random perturbations were drawn before this
	// detectable one appeared (a measure of defect rarity).
	Attempts int
}

// Library is a set of defects generated against one nominal bus description.
type Library struct {
	Nominal    *crosstalk.Params
	Thresholds crosstalk.Thresholds
	Sigma      float64
	Seed       int64
	Defects    []Defect
	// TotalAttempts is the total number of perturbations drawn, accepted or
	// not; Defects/TotalAttempts estimates the defect probability of the
	// process.
	TotalAttempts int

	batchMu sync.Mutex
	batch   *crosstalk.Batch    // see Batch; nil until first use
	batchOf []*crosstalk.Params // the sets batch was built over, in order
}

// Batch returns a crosstalk.Batch over the defects' parameter sets, in
// library order, judged against th. For the library's own Thresholds the
// batch is built on first use and kept as long as the library, so every
// campaign over one library screens with one batch (a Batch is safe for
// concurrent use); it is rebuilt only if Defects has changed since. Other
// thresholds get a fresh batch that is not kept.
func (l *Library) Batch(th crosstalk.Thresholds) (*crosstalk.Batch, error) {
	if th != l.Thresholds {
		return crosstalk.NewBatch(l.params(), th)
	}
	l.batchMu.Lock()
	defer l.batchMu.Unlock()
	if l.batch != nil && l.builtOver() {
		return l.batch, nil
	}
	params := l.params()
	b, err := crosstalk.NewBatch(params, th)
	if err != nil {
		return nil, err
	}
	l.batch, l.batchOf = b, params
	return b, nil
}

// params lists the defects' parameter sets in library order.
func (l *Library) params() []*crosstalk.Params {
	params := make([]*crosstalk.Params, len(l.Defects))
	for i, d := range l.Defects {
		params[i] = d.Params
	}
	return params
}

// builtOver reports whether the kept batch was built over exactly the
// current defects' parameter sets.
func (l *Library) builtOver() bool {
	if len(l.batchOf) != len(l.Defects) {
		return false
	}
	for i, d := range l.Defects {
		if d.Params != l.batchOf[i] {
			return false
		}
	}
	return true
}

// Config controls library generation.
type Config struct {
	// Sigma is the standard deviation of the relative capacitance variation;
	// zero selects DefaultSigma.
	Sigma float64
	// Size is the number of defects to generate; zero selects
	// DefaultLibrarySize.
	Size int
	// Seed seeds the generator; generation is fully deterministic for a
	// given (nominal, thresholds, config) triple.
	Seed int64
}

// Generate builds a defect library for the nominal bus, judged against the
// given thresholds (normally derived from the same nominal parameters).
func Generate(nominal *crosstalk.Params, th crosstalk.Thresholds, cfg Config) (*Library, error) {
	if err := nominal.Validate(); err != nil {
		return nil, err
	}
	if err := th.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sigma == 0 {
		cfg.Sigma = DefaultSigma
	}
	if cfg.Sigma < 0 {
		return nil, fmt.Errorf("defects: negative sigma %g", cfg.Sigma)
	}
	if cfg.Size == 0 {
		cfg.Size = DefaultLibrarySize
	}
	if cfg.Size < 0 {
		return nil, fmt.Errorf("defects: negative library size %d", cfg.Size)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	lib := &Library{
		Nominal:    nominal,
		Thresholds: th,
		Sigma:      cfg.Sigma,
		Seed:       cfg.Seed,
		Defects:    make([]Defect, 0, cfg.Size),
	}
	// Every draw is perturbed into one scratch set and only an accepted draw
	// is cloned: most draws are rejected, and a set holds a W×W matrix.
	draw := nominal.Clone()
	for len(lib.Defects) < cfg.Size {
		attempts := 0
		for {
			attempts++
			lib.TotalAttempts++
			if attempts > maxAttemptsPerDefect {
				return nil, errors.New("defects: perturbations never cross Cth; sigma too small or Cth too large")
			}
			perturbInto(draw, nominal, cfg.Sigma, rng)
			over := OverThresholdWires(draw, th.Cth)
			if len(over) == 0 {
				continue
			}
			lib.Defects = append(lib.Defects, Defect{
				ID:            len(lib.Defects),
				Params:        draw.Clone(),
				OverThreshold: over,
				Attempts:      attempts,
			})
			break
		}
	}
	return lib, nil
}

// Perturb draws one random perturbation of the nominal capacitance network:
// every pairwise coupling capacitance is scaled by (1 + X) with
// X ~ N(0, sigma), clamped at zero (a capacitance cannot be negative).
// Symmetry is preserved by drawing one variation per unordered wire pair.
func Perturb(nominal *crosstalk.Params, sigma float64, rng *rand.Rand) *crosstalk.Params {
	p := nominal.Clone()
	perturbInto(p, nominal, sigma, rng)
	return p
}

// perturbInto overwrites p's off-diagonal couplings with one draw of
// Perturb. p must be a clone of nominal: every other field is left as is.
func perturbInto(p, nominal *crosstalk.Params, sigma float64, rng *rand.Rand) {
	for i := 0; i < p.Width; i++ {
		for j := i + 1; j < p.Width; j++ {
			scale := 1 + rng.NormFloat64()*sigma
			if scale < 0 {
				scale = 0
			}
			c := nominal.Cc[i][j] * scale
			p.Cc[i][j] = c
			p.Cc[j][i] = c
		}
	}
}

// OverThresholdWires returns the wires of p whose net coupling capacitance
// exceeds cth, in ascending order.
func OverThresholdWires(p *crosstalk.Params, cth float64) []int {
	var over []int
	for i := 0; i < p.Width; i++ {
		if p.NetCoupling(i) > cth {
			over = append(over, i)
		}
	}
	return over
}

// VictimHistogram counts, per wire, how many defects in the library have
// that wire over threshold. This is the defect-population view behind the
// paper's Fig. 11: wires with zero counts (the side interconnects) cannot be
// covered by any test.
func (l *Library) VictimHistogram() []int {
	hist := make([]int, l.Nominal.Width)
	for _, d := range l.Defects {
		for _, w := range d.OverThreshold {
			hist[w]++
		}
	}
	return hist
}

// AcceptanceRate returns the fraction of drawn perturbations that qualified
// as defects.
func (l *Library) AcceptanceRate() float64 {
	if l.TotalAttempts == 0 {
		return 0
	}
	return float64(len(l.Defects)) / float64(l.TotalAttempts)
}
