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
