package defects

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// baseStrip is the edge of the ziggurat's base strip, math/rand's rn: only
// a base-strip draw returns a normal beyond it.
const baseStrip = 3.442619855899

// countingSource counts the values NormFloat64 reads from its source.
type countingSource struct {
	rand.Source
	n int
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.Source.Int63()
}

// slowPaths counts the reference's draws that left NormFloat64's fast path.
type slowPaths struct {
	baseStrip, wedge int
}

// compareNormalStream fills one stream of seed with the given sizes in turn
// and compares every value, by its bits, with NormFloat64 over
// rand.NewSource(seed), tallying the draws that read more than one value.
func compareNormalStream(t *testing.T, seed int64, sizes []int, slow *slowPaths) {
	t.Helper()
	src := &countingSource{Source: rand.NewSource(seed)}
	ref := rand.New(src)
	s := newNormalStream(seed)
	at := 0
	for _, size := range sizes {
		buf := make([]float64, size)
		s.fill(buf)
		for i, got := range buf {
			before := src.n
			want := ref.NormFloat64()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d, sizes %v: normal %d is %v (%#x), math/rand's is %v (%#x)",
					seed, sizes, at+i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if src.n-before > 1 {
				if math.Abs(want) > baseStrip {
					slow.baseStrip++
				} else {
					slow.wedge++
				}
			}
		}
		at += size
	}
}

// TestNormalStreamMatchesMathRand pins normalStream to math/rand: for seeds
// that math/rand's seeding folds (0, negative, around 2³¹−1 and the int64
// extremes), fills of 1 to 5,000 values, alone and one after another, cross
// the end of the bootstrapped lag register and of several refills, and every
// value equals NormFloat64's bit for bit. Both slow paths must have run: a
// base-strip draw and a wedge draw.
func TestNormalStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1 << 40, math.MinInt64, math.MaxInt64}
	sizes := []int{1, 2, 606, 607, 608, 2016, 5000}
	var slow slowPaths
	for _, seed := range seeds {
		compareNormalStream(t, seed, sizes, &slow)
		for _, size := range sizes {
			compareNormalStream(t, seed, []int{size}, &slow)
		}
	}
	if slow.baseStrip == 0 || slow.wedge == 0 {
		t.Fatalf("slow paths taken: %d base-strip and %d wedge draws, want both", slow.baseStrip, slow.wedge)
	}
	t.Logf("%d base-strip and %d wedge draws", slow.baseStrip, slow.wedge)
}

// TestNormalStreamReseeds checks that Seed restarts the stream where
// rand.NewSource(seed) starts, after reads that left a refill half used.
func TestNormalStreamReseeds(t *testing.T) {
	s := newNormalStream(3)
	s.fill(make([]float64, 5000))
	s.Seed(4)
	got := make([]float64, 700)
	s.fill(got)
	ref := rand.New(rand.NewSource(4))
	for i, x := range got {
		if want := ref.NormFloat64(); math.Float64bits(x) != math.Float64bits(want) {
			t.Fatalf("normal %d after Seed is %v, want %v", i, x, want)
		}
	}
}

// FuzzNormalStream compares normalStream with math/rand as
// TestNormalStreamMatchesMathRand does, for any seed and any sequence of
// fills: each two bytes of sizes are one fill of up to 8,191 values.
func FuzzNormalStream(f *testing.F) {
	f.Add(int64(1), []byte{1, 0, 2, 0, 0x5e, 0x02, 0x5f, 0x02})
	f.Add(int64(-1), []byte{0x60, 0x02, 0xe0, 0x07})
	f.Add(int64(math.MinInt64), []byte{0x88, 0x13})
	f.Fuzz(func(t *testing.T, seed int64, sizes []byte) {
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		var fills []int
		for ; len(sizes) >= 2; sizes = sizes[2:] {
			fills = append(fills, int(binary.LittleEndian.Uint16(sizes)&0x1fff))
		}
		compareNormalStream(t, seed, fills, &slowPaths{})
	})
}

// recordingSource records the values NormFloat64 reads from its source
// since vals was last cut.
type recordingSource struct {
	rand.Source
	vals []int64
}

func (r *recordingSource) Int63() int64 {
	v := r.Source.Int63()
	r.vals = append(r.vals, v)
	return v
}

// slowBranches tallies the branches of NormFloat64's slow path that
// reference draws took.
type slowBranches struct {
	wedgeAccept, wedgeReject [128]int // per strip
	basePos, baseNeg         int      // base-strip draws by sign
	baseRetried              int      // base-strip draws whose tail loop drew again
}

// add classifies one NormFloat64 draw by the values it read: a draw that
// leaves the fast path reads a value j, then one Float64 value for a wedge
// test (accepted if it is the draw's last) or two per round of the base
// strip's tail loop. Float64's resample, which no seeded stream reaches, is
// not told apart.
func (b *slowBranches) add(vals []int64) {
	for k := 0; k < len(vals); {
		j := int32(uint32(vals[k] >> 31)) // Rand.Uint32
		i := j & 0x7F
		switch {
		case absInt32(j) < kn[i]:
			k = len(vals)
		case i == 0:
			if j > 0 {
				b.basePos++
			} else {
				b.baseNeg++
			}
			if len(vals)-k > 3 {
				b.baseRetried++
			}
			k = len(vals)
		default:
			if k+2 == len(vals) {
				b.wedgeAccept[i]++
			} else {
				b.wedgeReject[i]++
			}
			k += 2
		}
	}
}

// TestNormalStreamSlowPaths compares four million normals of one seeded
// stream with math/rand's NormFloat64 bit for bit, and checks that the
// stream ran every branch of the inlined slow path on them: in every strip
// from 1 to 127 a wedge test that accepts and one that rejects, and
// base-strip draws of both signs, one of them after its tail loop drew
// again.
func TestNormalStreamSlowPaths(t *testing.T) {
	const seed, fills = 1, 61 // 61 fills of 65,536 values
	src := &recordingSource{Source: rand.NewSource(seed)}
	ref := rand.New(src)
	s := newNormalStream(seed)
	buf := make([]float64, 1<<16)
	var b slowBranches
	for f := 0; f < fills; f++ {
		s.fill(buf)
		for i, got := range buf {
			src.vals = src.vals[:0]
			want := ref.NormFloat64()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("normal %d is %v, math/rand's is %v", f*len(buf)+i, got, want)
			}
			b.add(src.vals)
		}
	}
	for i := 1; i < 128; i++ {
		if b.wedgeAccept[i] == 0 || b.wedgeReject[i] == 0 {
			t.Errorf("strip %d: %d wedge accepts and %d rejects, want both", i, b.wedgeAccept[i], b.wedgeReject[i])
		}
	}
	if b.basePos == 0 || b.baseNeg == 0 || b.baseRetried == 0 {
		t.Errorf("base strip: %d positive, %d negative, %d retried draws, want each", b.basePos, b.baseNeg, b.baseRetried)
	}
	least := b.wedgeReject[1]
	for i := 1; i < 128; i++ {
		least = min(least, b.wedgeAccept[i], b.wedgeReject[i])
	}
	t.Logf("base strip %d+/%d-, %d retried; fewest wedge accepts or rejects in a strip %d", b.basePos, b.baseNeg, b.baseRetried, least)
}

// rawSource is math/rand's view of a list of raw values: Int63 is each
// one's low 63 bits, as rand.NewSource's Int63 is of its values.
type rawSource struct {
	vals []uint64
	n    int
}

func (r *rawSource) Int63() int64 {
	v := r.vals[r.n]
	r.n++
	return int64(v & (1<<63 - 1))
}

func (r *rawSource) Seed(int64) { panic("rawSource: Seed") }

// TestNormalStreamFloat64Resample reaches Rand.Float64's resample, which
// no seeded stream does: a raw value whose low 63 bits are 2⁶³−512 or more
// converts to 1, and Float64 draws again. The stream's next raw values are
// set to a slow-path draw holding such a value, and the normals it yields
// must equal NormFloat64's over the same values, bit for bit, reading as
// many of them.
func TestNormalStreamFloat64Resample(t *testing.T) {
	const (
		wedge   = uint64(1) << 31          // j = 1: strip 1, whose kn is 0, so a wedge test
		basePos = uint64(0x7fffff80) << 31 // j = 2³¹−128: the base strip, beyond kn[0]
		baseNeg = uint64(0x80000080) << 31 // j = −(2³¹−128)
		one     = 1<<63 - 512              // the least low-63-bit value Float64 rounds to 1
		half    = 1 << 62
		quarter = 1 << 61
	)
	for _, tc := range []struct {
		name  string
		raw   []uint64
		reads int // values the first normal reads
	}{
		{"wedge", []uint64{wedge, one, half}, 3},
		{"wedge/top bit", []uint64{wedge, 1<<64 - 1, half}, 3},
		{"base+/x", []uint64{basePos, one, half, quarter}, 4},
		{"base+/below", []uint64{basePos, one - 1, quarter}, 3},
		{"base-/y", []uint64{baseNeg, half, one, quarter}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newNormalStream(1)
			copy(s.vals[s.pos:], tc.raw)
			src := &rawSource{vals: append([]uint64(nil), s.vals[s.pos:s.end]...)}
			ref := rand.New(src)
			got := make([]float64, 3)
			s.fill(got)
			for i, x := range got {
				want := ref.NormFloat64()
				if i == 0 && src.n != tc.reads {
					t.Fatalf("math/rand read %d values for the first normal, want %d", src.n, tc.reads)
				}
				if math.Float64bits(x) != math.Float64bits(want) {
					t.Fatalf("normal %d is %v, math/rand's is %v", i, x, want)
				}
			}
			if s.pos != src.n {
				t.Fatalf("the stream read %d values, math/rand %d", s.pos, src.n)
			}
		})
	}
}
