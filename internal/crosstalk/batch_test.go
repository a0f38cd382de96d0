package crosstalk

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logic"
	"repro/internal/maf"
)

// perturbedSets draws n randomized symmetric perturbations of the nominal
// coupling network (plus the nominal itself as set 0, which must never err
// against its own thresholds).
func perturbedSets(t *testing.T, width, n int, seed int64) []*Params {
	t.Helper()
	nominal := Nominal(width)
	rng := rand.New(rand.NewSource(seed))
	sets := []*Params{nominal}
	for len(sets) < n {
		p := nominal.Clone()
		for a := 0; a < width; a++ {
			for b := a + 1; b < width; b++ {
				f := 1 + 0.7*rng.NormFloat64()
				if f < 0 {
					f = 0
				}
				p.Cc[a][b] *= f
				p.Cc[b][a] = p.Cc[a][b]
			}
		}
		sets = append(sets, p)
	}
	return sets
}

// TestBatchMatchesChannelTransmit is the batched screening's soundness pin:
// over random perturbed parameter sets and random transitions, bit d of the
// batch event mask must be set exactly when the specification form of
// transmission (Analyze plus thresholding) on set d produces a non-empty
// event list — the same per-transition divergence verdict the per-defect
// replay tier reaches, across widths on both sides of the 32-wire boundary
// and both drive directions. The reference does not use the risk masks,
// which Batch and Channel share. Besides the mixed library, a quiet batch
// (no set on either list of any wire) and a loud one (every set on both
// lists of every wire) cover the ends of the compaction. The batch's own channel for each
// set (Batch.Channel) must equal NewChannel's in its total couplings and
// risk masks and transmit exactly as it does.
func TestBatchMatchesChannelTransmit(t *testing.T) {
	for _, width := range []int{2, 8, 12, 32, 40, 64} {
		width := width
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			nominal := Nominal(width)
			th, err := DeriveThresholds(nominal, 0)
			if err != nil {
				t.Fatal(err)
			}
			quiet, loud := extremeSets(width)
			mixed := append(perturbedSets(t, width, 70, int64(90+width)), quiet, loud)
			// Raising any coupling of the loud set keeps every wire at risk.
			loudBatch := []*Params{loud}
			raise := rand.New(rand.NewSource(int64(width)))
			for len(loudBatch) < 5 {
				p := loud.Clone()
				for a := 0; a < width; a++ {
					for b := a + 1; b < width; b++ {
						p.Cc[a][b] *= 1 + raise.Float64()
						p.Cc[b][a] = p.Cc[a][b]
					}
				}
				loudBatch = append(loudBatch, p)
			}
			for _, tc := range []struct {
				name string
				sets []*Params
				want int // sets at risk on every wire; -1 for a mixed library
			}{
				{"mixed", mixed, -1},
				{"quiet", []*Params{nominal, quiet, nominal.Clone()}, 0},
				{"loud", loudBatch, len(loudBatch)},
			} {
				b, err := NewBatch(tc.sets, th)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range b.victims {
					if tc.want >= 0 && (len(v.delay.sets) != tc.want || len(v.glitch.sets) != tc.want) {
						t.Fatalf("%s: wire %d keeps %d sets on its delay list and %d on its glitch list, want %d on each",
							tc.name, i, len(v.delay.sets), len(v.glitch.sets), tc.want)
					}
				}
				chans := make([]*Channel, len(tc.sets))
				for d, p := range tc.sets {
					if chans[d], err = NewChannel(p, th); err != nil {
						t.Fatal(err)
					}
					bc := b.Channel(d)
					if bc.p != p || !slices.Equal(bc.ctot, chans[d].ctot) ||
						bc.delayRisk != chans[d].delayRisk || bc.glitchRisk != chans[d].glitchRisk {
						t.Fatalf("%s: set %d's batch channel differs from NewChannel's", tc.name, d)
					}
				}
				rng := rand.New(rand.NewSource(int64(7 * width)))
				mask := make([]uint64, b.MaskWords())
				for step := 0; step < 300; step++ {
					v1 := logic.NewWord(rng.Uint64(), width)
					v2 := logic.NewWord(rng.Uint64(), width)
					if step%17 == 0 {
						v2 = v1 // exercise the no-edges shortcut
					}
					dir := maf.Direction(rng.Intn(2))
					b.EventMask(v1, v2, dir, mask)
					for d, ch := range chans {
						_, events := referenceTransmit(ch, v1, v2, dir)
						got := mask[d>>6]&(1<<uint(d&63)) != 0
						if got != (len(events) > 0) {
							t.Fatalf("%s step %d set %d: batch says events=%v, reference produced %d events for %v->%v %v",
								tc.name, step, d, got, len(events), v1, v2, dir)
						}
						wantWord, wantEvents := ch.Transmit(v1, v2, dir)
						gotWord, gotEvents := b.Channel(d).Transmit(v1, v2, dir)
						if gotWord != wantWord || !slices.Equal(gotEvents, wantEvents) {
							t.Fatalf("%s step %d set %d: batch channel transmits %v %v, NewChannel %v %v",
								tc.name, step, d, gotWord, gotEvents, wantWord, wantEvents)
						}
					}
				}
			}
		})
	}
}

// TestBatchValidation covers the constructor's refusals.
func TestBatchValidation(t *testing.T) {
	nominal := Nominal(8)
	th, err := DeriveThresholds(nominal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatch(nil, th); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := NewBatch([]*Params{nominal, Nominal(12)}, th); err == nil {
		t.Error("mixed-width batch accepted")
	}
	bad := nominal.Clone()
	bad.Cc[0][1] = -1
	if _, err := NewBatch([]*Params{nominal, bad}, th); err == nil {
		t.Error("invalid parameter set accepted")
	}
	// With two invalid sets the error names the lower index, also when the
	// per-set pass runs on several goroutines and the later set's block
	// may finish first.
	sets := make([]*Params, 40)
	for d := range sets {
		sets[d] = nominal
	}
	sets[5], sets[33] = bad, Nominal(12)
	for _, workers := range []int{1, 3} {
		_, err := BuildBatch(context.Background(), sets, th, workers, make(chan struct{}, 2))
		if err == nil || !strings.Contains(err.Error(), "batch set 5:") {
			t.Errorf("%d workers: two invalid sets gave %v, want set 5 named", workers, err)
		}
	}
	b, err := NewBatch([]*Params{nominal, nominal.Clone(), nominal.Clone()}, th)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 || b.Width() != 8 || b.MaskWords() != 1 {
		t.Errorf("batch shape: len=%d width=%d words=%d", b.Len(), b.Width(), b.MaskWords())
	}
}

// TestBatchEventMaskConcurrent pins that one batch serves several goroutines
// at once: four goroutines, each walking the same transitions from a
// different offset, fill exactly the masks one goroutine fills. Run under
// -race, it also shows the calls share no unsynchronised state.
func TestBatchEventMaskConcurrent(t *testing.T) {
	for _, width := range []int{12, 64} {
		nominal := Nominal(width)
		th, err := DeriveThresholds(nominal, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBatch(perturbedSets(t, width, 150, int64(width)), th)
		if err != nil {
			t.Fatal(err)
		}
		type step struct {
			prev, next logic.Word
			dir        maf.Direction
		}
		rng := rand.New(rand.NewSource(int64(3 * width)))
		steps := make([]step, 200)
		for i := range steps {
			steps[i] = step{logic.NewWord(rng.Uint64(), width), logic.NewWord(rng.Uint64(), width), maf.Direction(rng.Intn(2))}
		}
		want := make([][]uint64, len(steps))
		for i, st := range steps {
			want[i] = make([]uint64, b.MaskWords())
			b.EventMask(st.prev, st.next, st.dir, want[i])
		}
		const goroutines = 4
		got := make([][][]uint64, goroutines)
		done := make(chan struct{})
		for g := range got {
			got[g] = make([][]uint64, len(steps))
			go func(g int) {
				defer func() { done <- struct{}{} }()
				for k := range steps {
					i := (k + g*len(steps)/goroutines) % len(steps)
					got[g][i] = make([]uint64, b.MaskWords())
					b.EventMask(steps[i].prev, steps[i].next, steps[i].dir, got[g][i])
				}
			}(g)
		}
		for range got {
			<-done
		}
		for g := range got {
			for i := range steps {
				if !slices.Equal(got[g][i], want[i]) {
					t.Fatalf("width %d: goroutine %d step %d mask %x, one goroutine gives %x", width, g, i, got[g][i], want[i])
				}
			}
		}
	}
}

// TestRunBlocks pins the pool discipline the batch build, the sim layer's
// screen and its campaigns share: every index runs exactly once, no more
// blocks run at once than the pool has tokens (or workers, without a pool),
// every token is back when RunBlocks returns, and a caller waiting for the
// pool between two blocks gets its turn before the second block runs.
func TestRunBlocks(t *testing.T) {
	for _, tc := range []struct{ n, block, workers, tokens int }{
		{0, 4, 3, 2}, {1, 16, 4, 1}, {100, 1, 5, 2}, {1000, 7, 4, 3}, {257, 16, 3, 0},
	} {
		var slots chan struct{}
		limit := tc.workers
		if tc.tokens > 0 {
			slots, limit = make(chan struct{}, tc.tokens), tc.tokens
		}
		runs := make([]atomic.Int32, tc.n)
		var running, most atomic.Int32
		err := RunBlocks(context.Background(), tc.n, tc.block, tc.workers, slots, func(lo, hi int) {
			now := running.Add(1)
			for m := most.Load(); now > m && !most.CompareAndSwap(m, now); m = most.Load() {
			}
			for i := lo; i < hi; i++ {
				runs[i].Add(1)
			}
			time.Sleep(50 * time.Microsecond)
			running.Add(-1)
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		for i := range runs {
			if n := runs[i].Load(); n != 1 {
				t.Fatalf("%+v: index %d ran %d times", tc, i, n)
			}
		}
		if m := most.Load(); m > int32(limit) {
			t.Errorf("%+v: %d blocks ran at once, limit %d", tc, m, limit)
		}
		if len(slots) != 0 {
			t.Errorf("%+v: %d tokens left in the pool", tc, len(slots))
		}
	}

	// One worker on a one-token pool takes turns with another caller: one
	// that waits for the token when block 0 ends has it before block 1 runs.
	// The other caller starts during block 0, so a try in which it is not
	// yet waiting when block 0 ends proves nothing and is repeated.
	turn := func() bool {
		slots := make(chan struct{}, 1)
		took := make(chan struct{})
		var first bool
		err := RunBlocks(context.Background(), 2, 1, 1, slots, func(lo, _ int) {
			if lo == 0 {
				go func() {
					slots <- struct{}{}
					close(took)
					<-slots
				}()
				time.Sleep(time.Millisecond)
				return
			}
			select {
			case <-took:
				first = true
			default:
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		<-took
		return first
	}
	for try := 1; !turn(); try++ {
		if try == 20 {
			t.Fatal("in 20 tries, block 1 always ran before a caller waiting for the pool had its turn")
		}
	}
}

// TestRunBlocksCancelledWhileWaiting pins cancellation on a full pool: a
// goroutine waiting for a token when the context is cancelled returns the
// context's error without running its block, and takes no token.
func TestRunBlocksCancelledWhileWaiting(t *testing.T) {
	slots := make(chan struct{}, 1)
	slots <- struct{}{} // held elsewhere
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	done := make(chan error, 1)
	go func() {
		done <- RunBlocks(ctx, 10, 1, 3, slots, func(int, int) { ran.Store(true) })
	}()
	time.Sleep(20 * time.Millisecond) // let the goroutines wait for the pool
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("RunBlocks returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		<-slots
		t.Fatal("RunBlocks still waits for a token 2 s after its context was cancelled")
	}
	if ran.Load() {
		t.Error("a block ran after the context was cancelled")
	}
	if len(slots) != 1 {
		t.Errorf("pool holds %d tokens, want the 1 held elsewhere", len(slots))
	}
}
