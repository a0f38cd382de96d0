package crosstalk

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/logic"
	"repro/internal/maf"
)

// The transmit memo has two tiers: a packed uint64 key for busses whose
// (prev, next, dir) triple fits 64 bits (width <= 31), and a struct key for
// the wide-bus targets up to 64 wires (Params.Validate refuses anything
// wider). This test covers the wide tier — the packed tier is pinned by
// TestMemoNeverChangesResults — including the 31/32 boundary.

func TestWideMemoNeverChangesResults(t *testing.T) {
	for _, width := range []int{31, 32, 48, 64} {
		nominal := Nominal(width)
		th, err := DeriveThresholds(nominal, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(width)))
		p := nominal.Clone()
		for a := 0; a < width; a++ {
			for b := a + 1; b < width; b++ {
				f := 1 + 0.6*rng.NormFloat64()
				if f < 0.1 {
					f = 0.1
				}
				p.Cc[a][b] *= f
				p.Cc[b][a] = p.Cc[a][b]
			}
		}
		plain, err := NewChannel(p, th)
		if err != nil {
			t.Fatal(err)
		}
		memoized, err := NewChannel(p, th)
		if err != nil {
			t.Fatal(err)
		}
		memoized.EnableMemo()
		if !memoized.MemoActive() {
			t.Fatalf("width %d: memo did not activate", width)
		}

		mask := ^uint64(0) >> (64 - width)
		pool := make([]logic.Word, 12)
		for i := range pool {
			pool[i] = logic.NewWord(rng.Uint64()&mask, width)
		}
		dirs := []maf.Direction{maf.Forward, maf.Reverse}
		const steps = 2000
		for step := 0; step < steps; step++ {
			v1 := pool[rng.Intn(len(pool))]
			v2 := pool[rng.Intn(len(pool))]
			dir := dirs[rng.Intn(2)]
			gotW, gotE := memoized.Transmit(v1, v2, dir)
			wantW, wantE := plain.Transmit(v1, v2, dir)
			if gotW != wantW || !reflect.DeepEqual(gotE, wantE) {
				t.Fatalf("width %d step %d: memoized (%v, %v) != plain (%v, %v) for %v->%v %v",
					width, step, gotW, gotE, wantW, wantE, v1, v2, dir)
			}
		}
		hits, misses := memoized.TakeMemoStats()
		if hits == 0 {
			t.Errorf("width %d: no memo hits over repeated traffic", width)
		}
		if hits+misses != steps {
			t.Errorf("width %d: hits %d + misses %d != %d transmits", width, hits, misses, steps)
		}
	}
}
