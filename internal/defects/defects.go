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
	"context"
	"errors"
	"fmt"
	"math"
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
	// drawBlock is about how many normals the drawing goroutine hands over
	// at a time (see normals): whole attempts, so a narrow bus's attempt of
	// a few dozen values does not pay one handoff each, and a wide bus's
	// 2,016-value attempts come eight to a block.
	drawBlock = 16384
	// drawBufs is how many blocks circulate between the drawing goroutine
	// and the judge: one being drawn, one being judged, and two of slack.
	drawBufs = 4
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

	batchMu  sync.Mutex
	batch    *crosstalk.Batch    // see Batch; nil until first use
	batchOf  []*crosstalk.Params // the sets batch was built over, in order
	building chan struct{}       // closed when the build in flight ends; nil when none is
}

// Batch returns a crosstalk.Batch over the defects' parameter sets, in
// library order, judged against th, built by crosstalk.BuildBatch on up to
// workers goroutines, each block of sets holding one slots token. For the library's own
// Thresholds the batch is built on first use and kept as long as the
// library, so every campaign over one library screens with one batch (a
// Batch is safe for concurrent use); it is rebuilt only if Defects has
// changed since. A caller that finds a build in flight waits for it, or
// for ctx. A cancelled build returns the context's error and keeps nothing.
// Other thresholds get a fresh batch that is not kept.
func (l *Library) Batch(ctx context.Context, th crosstalk.Thresholds, workers int, slots chan struct{}) (*crosstalk.Batch, error) {
	if th != l.Thresholds {
		return crosstalk.BuildBatch(ctx, l.params(), th, workers, slots)
	}
	for {
		l.batchMu.Lock()
		if l.batch != nil && l.builtOver() {
			b := l.batch
			l.batchMu.Unlock()
			return b, nil
		}
		building := l.building
		if building == nil {
			break
		}
		l.batchMu.Unlock()
		select {
		case <-building:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// No batch and no build in flight, and batchMu is held: mark a build in
	// flight and run it outside the lock, since it waits for pool slots.
	done := make(chan struct{})
	l.building = done
	params := l.params()
	l.batchMu.Unlock()
	b, err := crosstalk.BuildBatch(ctx, params, th, workers, slots)
	l.batchMu.Lock()
	if err == nil {
		l.batch, l.batchOf = b, params
	}
	l.building = nil
	l.batchMu.Unlock()
	close(done)
	return b, err
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
// given thresholds (normally derived from the same nominal parameters). It
// is GenerateCtx with a context that is never done.
func Generate(nominal *crosstalk.Params, th crosstalk.Thresholds, cfg Config) (*Library, error) {
	return GenerateCtx(context.Background(), nominal, th, cfg)
}

// GenerateCtx is Generate that gives up once ctx is done, returning its
// error: it checks ctx before judging each block of drawn values, so a
// cancelled call returns within one block (about drawBlock normals) even
// when no draw would ever cross Cth.
//
// The normals are the ones Perturb draws from rand.New(rand.NewSource(Seed)),
// in the same order, taken from an inlined copy of that stream and of the
// whole of NormFloat64 (see normalStream) on a goroutine of its own, which
// hands them over in blocks of whole attempts of about drawBlock values
// (see normals), while this one judges each attempt: it scales the
// attempt's couplings into one upper-triangle row and sums each wire's net
// coupling as the values arrive, in ascending partner order, which is the
// order Params.NetCoupling sums in, so every verdict and attempt count is
// the one a Perturb and OverThresholdWires loop reaches. Only an accepted
// draw becomes a parameter set.
func GenerateCtx(ctx context.Context, nominal *crosstalk.Params, th crosstalk.Thresholds, cfg Config) (*Library, error) {
	if err := nominal.Validate(); err != nil {
		return nil, err
	}
	if err := th.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sigma == 0 {
		cfg.Sigma = DefaultSigma
	}
	if !(cfg.Sigma > 0 && cfg.Sigma < math.Inf(1)) {
		return nil, fmt.Errorf("defects: sigma %g is negative or not finite", cfg.Sigma)
	}
	if cfg.Size == 0 {
		cfg.Size = DefaultLibrarySize
	}
	if cfg.Size < 0 {
		return nil, fmt.Errorf("defects: negative library size %d", cfg.Size)
	}

	lib := &Library{
		Nominal:    nominal,
		Thresholds: th,
		Sigma:      cfg.Sigma,
		Seed:       cfg.Seed,
		Defects:    make([]Defect, 0, cfg.Size),
	}
	w := nominal.Width
	pairs := w * (w - 1) / 2
	draws := startNormals(newNormalStream(cfg.Seed), pairs, max(1, drawBlock/pairs))
	defer draws.stop()
	net := make([]float64, w)
	for len(lib.Defects) < cfg.Size {
		attempts := 0
		for {
			attempts++
			lib.TotalAttempts++
			if attempts > maxAttemptsPerDefect {
				return nil, errors.New("defects: perturbations never cross Cth; sigma too small or Cth too large")
			}
			// Scale the attempt's normals into couplings in place: the pair
			// (i, j), i < j, ascending, as perturbInto visits them. Wire j
			// meets its partners below it in rows 0..j-1 and those above it
			// in row j, so every net sum runs in ascending partner order. The
			// conversion rounds each coupling before it is summed, as a
			// stored one is, so no platform may fuse the two.
			tri, err := draws.attempt(ctx)
			if err != nil {
				return nil, err
			}
			clear(net)
			k := 0
			for i := 0; i < w; i++ {
				row, sum := nominal.Cc[i], net[i]
				for j := i + 1; j < w; j++ {
					scale := 1 + tri[k]*cfg.Sigma
					if scale < 0 {
						scale = 0
					}
					c := float64(row[j] * scale)
					tri[k] = c
					sum += c
					net[j] += c
					k++
				}
				net[i] = sum
			}
			var over []int
			for i, sum := range net {
				if sum > th.Cth {
					over = append(over, i)
				}
			}
			if len(over) == 0 {
				continue
			}
			lib.Defects = append(lib.Defects, Defect{
				ID:            len(lib.Defects),
				Params:        fromTriangle(nominal, tri),
				OverThreshold: over,
				Attempts:      attempts,
			})
			break
		}
	}
	return lib, nil
}

// fromTriangle builds the parameter set whose couplings are tri, nominal's
// upper triangle row by row, mirrored below the diagonal; its coupling rows
// are cut from one W×W allocation. Every other field is nominal's.
func fromTriangle(nominal *crosstalk.Params, tri []float64) *crosstalk.Params {
	w := nominal.Width
	flat := make([]float64, w*w)
	p := &crosstalk.Params{
		Width:  w,
		Cg:     append([]float64(nil), nominal.Cg...),
		Cc:     make([][]float64, w),
		RDrive: nominal.RDrive,
		Vdd:    nominal.Vdd,
	}
	for i := range p.Cc {
		p.Cc[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	k := 0
	for i := 0; i < w; i++ {
		for j := i + 1; j < w; j++ {
			p.Cc[i][j], p.Cc[j][i] = tri[k], tri[k]
			k++
		}
	}
	return p
}

// normals hands a judge a normalStream's values in order, attempt by
// attempt, drawn ahead on a goroutine of its own in blocks of whole
// attempts. The judge may overwrite an attempt's values; they are its until
// its next call. stop must be called once: it returns after the drawing
// goroutine has exited.
type normals struct {
	full, free chan []float64 // each holds every block at once, so sends never wait
	done       chan struct{}
	wg         sync.WaitGroup

	per   int       // values per attempt
	block []float64 // the block being judged
	off   int       // its next attempt's offset
}

// startNormals starts drawing blocks of perBlock attempts of per values
// from stream, which the drawing goroutine owns from then on: each free
// block is one stream.fill.
func startNormals(stream *normalStream, per, perBlock int) *normals {
	n := &normals{
		full: make(chan []float64, drawBufs),
		free: make(chan []float64, drawBufs),
		done: make(chan struct{}),
		per:  per,
	}
	for i := 0; i < drawBufs; i++ {
		n.free <- make([]float64, per*perBlock)
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			// A stop wins over a free block: select picks at random.
			select {
			case <-n.done:
				return
			default:
			}
			select {
			case buf := <-n.free:
				stream.fill(buf)
				n.full <- buf
			case <-n.done:
				return
			}
		}
	}()
	return n
}

// attempt returns the next attempt's values. Before it takes a new block it
// returns ctx's error if ctx is done.
func (n *normals) attempt(ctx context.Context) ([]float64, error) {
	if n.off == len(n.block) {
		if n.block != nil {
			n.free <- n.block
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n.block, n.off = <-n.full, 0
	}
	a := n.block[n.off : n.off+n.per]
	n.off += n.per
	return a, nil
}

// stop ends the drawing goroutine and waits for it to exit.
func (n *normals) stop() {
	close(n.done)
	n.wg.Wait()
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
