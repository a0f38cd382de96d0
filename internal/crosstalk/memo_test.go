package crosstalk

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/logic"
	"repro/internal/maf"
)

// TestMemoNeverChangesResults drives a memoized and an unmemoized channel
// over the same randomized transition stream — with deliberate repeats so
// the memo's hit path is exercised — and requires identical received words
// and event lists at every step, on nominal and perturbed parameter sets.
func TestMemoNeverChangesResults(t *testing.T) {
	const width = 8
	nominal := Nominal(width)
	th, err := DeriveThresholds(nominal, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	paramSets := []*Params{nominal}
	for i := 0; i < 3; i++ {
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
		paramSets = append(paramSets, p)
	}

	for pi, p := range paramSets {
		plain, err := NewChannel(p, th)
		if err != nil {
			t.Fatal(err)
		}
		memoized, err := NewChannel(p, th)
		if err != nil {
			t.Fatal(err)
		}
		memoized.EnableMemo()

		// A small word pool guarantees repeated (prev, next, dir) triples.
		pool := make([]logic.Word, 12)
		for i := range pool {
			pool[i] = logic.NewWord(rng.Uint64()&((1<<width)-1), width)
		}
		dirs := []maf.Direction{maf.Forward, maf.Reverse}
		for step := 0; step < 4000; step++ {
			v1 := pool[rng.Intn(len(pool))]
			v2 := pool[rng.Intn(len(pool))]
			dir := dirs[rng.Intn(2)]
			gotW, gotE := memoized.Transmit(v1, v2, dir)
			wantW, wantE := plain.Transmit(v1, v2, dir)
			if gotW != wantW || !reflect.DeepEqual(gotE, wantE) {
				t.Fatalf("params %d step %d: memoized (%v, %v) != plain (%v, %v) for %v->%v %v",
					pi, step, gotW, gotE, wantW, wantE, v1, v2, dir)
			}
		}
		hits, misses := memoized.TakeMemoStats()
		if hits == 0 {
			t.Errorf("params %d: memo recorded no hits over repeated traffic", pi)
		}
		if hits+misses != 4000 {
			t.Errorf("params %d: hits %d + misses %d != 4000 transmits", pi, hits, misses)
		}
		if h, m := memoized.TakeMemoStats(); h != 0 || m != 0 {
			t.Errorf("params %d: TakeMemoStats did not reset counters (%d, %d)", pi, h, m)
		}
	}
}

// referenceTransmit is the unfused definition of transmission: Analyze
// followed by thresholding, exactly as the model is specified.
func referenceTransmit(c *Channel, v1, v2 logic.Word, dir maf.Direction) (logic.Word, []Event) {
	received := v2
	var events []Event
	for i, wa := range c.Analyze(v1, v2, dir) {
		if wa.Transition.IsEdge() {
			if wa.Delay > c.Thresholds().Slack[dir] {
				received = received.WithBit(i, v1.Bit(i))
				kind := maf.RisingDelay
				if wa.Transition == logic.Falling {
					kind = maf.FallingDelay
				}
				events = append(events, Event{Wire: i, Kind: kind, Magnitude: wa.Delay})
			}
			continue
		}
		if wa.GlitchFrac > c.Thresholds().GlitchFrac {
			received = received.FlipBit(i)
			kind := maf.PositiveGlitch
			if wa.Transition == logic.Stable1 {
				kind = maf.NegativeGlitch
			}
			events = append(events, Event{Wire: i, Kind: kind, Magnitude: wa.GlitchFrac})
		}
	}
	return received, events
}

// TestTransmitMatchesAnalyze pins the fused, risk-masked Transmit hot path
// to the specification form (Analyze + thresholding): over random perturbed
// parameter sets and the two extreme sets (no wire at risk, every wire at
// risk), on random word pairs in both directions at widths on both sides of
// the 32-wire boundary, and on every (v1, v2, dir) triple at widths 2–4.
func TestTransmitMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(c *Channel, v1, v2 logic.Word, dir maf.Direction) {
		t.Helper()
		gotW, gotE := c.Transmit(v1, v2, dir)
		wantW, wantE := referenceTransmit(c, v1, v2, dir)
		if gotW != wantW || !reflect.DeepEqual(gotE, wantE) {
			t.Fatalf("width %d: transmit (%v, %v) != reference (%v, %v) for %v->%v %v",
				c.Width(), gotW, gotE, wantW, wantE, v1, v2, dir)
		}
	}
	// channels builds the nominal set, three random perturbations of it and
	// the two extreme sets, all judged against the nominal thresholds.
	channels := func(width int) []*Channel {
		nominal := Nominal(width)
		th, err := DeriveThresholds(nominal, 0)
		if err != nil {
			t.Fatal(err)
		}
		quiet, loud := extremeSets(width)
		sets := []*Params{nominal, quiet, loud}
		for trial := 0; trial < 3; trial++ {
			p := nominal.Clone()
			for a := 0; a < width; a++ {
				for b := a + 1; b < width; b++ {
					f := 1 + 0.8*rng.NormFloat64()
					if f < 0.05 {
						f = 0.05
					}
					p.Cc[a][b] *= f
					p.Cc[b][a] = p.Cc[a][b]
				}
			}
			sets = append(sets, p)
		}
		out := make([]*Channel, len(sets))
		for i, p := range sets {
			if out[i], err = NewChannel(p, th); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	for _, width := range []int{2, 8, 12, 32, 33, 64} {
		for _, c := range channels(width) {
			for step := 0; step < 2000; step++ {
				v1 := logic.NewWord(rng.Uint64(), width)
				v2 := logic.NewWord(rng.Uint64(), width)
				check(c, v1, v2, maf.Direction(rng.Intn(2)))
			}
		}
	}
	for width := 2; width <= 4; width++ {
		for _, c := range channels(width) {
			for a := uint64(0); a < 1<<uint(width); a++ {
				for b := uint64(0); b < 1<<uint(width); b++ {
					for _, dir := range []maf.Direction{maf.Forward, maf.Reverse} {
						check(c, logic.NewWord(a, width), logic.NewWord(b, width), dir)
					}
				}
			}
		}
	}
}

// TestMemoCapSaturation pins the cap behaviour on both key tiers (packed
// <=31-wire keys and wide struct keys): once the memo holds memoLimit
// entries it stops inserting — capped-out triples recompute correctly and
// count as a miss on every visit — while the entries cached before
// saturation keep hitting.
func TestMemoCapSaturation(t *testing.T) {
	const cap = 3
	for _, tc := range []struct {
		name  string
		width int
	}{
		{"packed", 8}, // 2*8+1 <= 64: packed uint64 keys
		{"wide", 40},  // > 31 wires: wideKey struct keys
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			nominal := Nominal(tc.width)
			th, err := DeriveThresholds(nominal, 0)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewChannel(nominal, th)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := NewChannel(nominal, th)
			if err != nil {
				t.Fatal(err)
			}
			c.setMemoCapForTest(cap)
			c.EnableMemo()
			if !c.MemoActive() {
				t.Fatalf("width %d: memo not active after EnableMemo", tc.width)
			}
			entries := func() int { return len(c.memo) + len(c.memoWide) }

			// 6 distinct triples: the first cap insert, the rest overflow.
			words := make([]logic.Word, 7)
			for i := range words {
				words[i] = logic.NewWord(uint64(i)*0x2f, tc.width)
			}
			for i := 0; i < 6; i++ {
				gotW, gotE := c.Transmit(words[i], words[i+1], maf.Forward)
				wantW, wantE := plain.Transmit(words[i], words[i+1], maf.Forward)
				if gotW != wantW || !reflect.DeepEqual(gotE, wantE) {
					t.Fatalf("%s step %d: capped memo (%v, %v) != plain (%v, %v)",
						tc.name, i, gotW, gotE, wantW, wantE)
				}
			}
			if got := entries(); got != cap {
				t.Fatalf("%s: memo holds %d entries after saturation, want exactly %d", tc.name, got, cap)
			}
			if h, m := c.TakeMemoStats(); h != 0 || m != 6 {
				t.Fatalf("%s: first pass hits=%d misses=%d, want 0/6", tc.name, h, m)
			}

			// Second pass: cached triples hit; capped-out triples miss again
			// (and still answer correctly) on every visit.
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < 6; i++ {
					gotW, gotE := c.Transmit(words[i], words[i+1], maf.Forward)
					wantW, wantE := plain.Transmit(words[i], words[i+1], maf.Forward)
					if gotW != wantW || !reflect.DeepEqual(gotE, wantE) {
						t.Fatalf("%s repeat %d/%d: capped memo (%v, %v) != plain (%v, %v)",
							tc.name, pass, i, gotW, gotE, wantW, wantE)
					}
				}
			}
			if h, m := c.TakeMemoStats(); h != 2*cap || m != 2*(6-cap) {
				t.Fatalf("%s: repeat passes hits=%d misses=%d, want %d/%d",
					tc.name, h, m, 2*cap, 2*(6-cap))
			}
			if got := entries(); got != cap {
				t.Fatalf("%s: memo grew past the cap to %d entries", tc.name, got)
			}
		})
	}
}

// TestMemoCapStopsInsertionNotCorrectness checks a full memo still computes
// correct results (entries past the cap are simply not cached).
func TestMemoCapStopsInsertionNotCorrectness(t *testing.T) {
	nominal := Nominal(4)
	th, err := DeriveThresholds(nominal, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChannel(nominal, th)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableMemo()
	// Simulate a saturated memo by filling the map past use: the cap itself
	// is too large to fill in a unit test, so shrink-check the guard logic
	// against the plain path instead.
	plain, err := NewChannel(nominal, th)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			v1, v2 := logic.NewWord(uint64(a), 4), logic.NewWord(uint64(b), 4)
			gotW, gotE := c.Transmit(v1, v2, maf.Forward)
			wantW, wantE := plain.Transmit(v1, v2, maf.Forward)
			if gotW != wantW || !reflect.DeepEqual(gotE, wantE) {
				t.Fatalf("%v->%v: memoized (%v, %v) != plain (%v, %v)", v1, v2, gotW, gotE, wantW, wantE)
			}
		}
	}
}
