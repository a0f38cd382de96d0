package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/defects"
	"repro/internal/parwan"
	"repro/internal/target"
)

// runView is the part of a RunResult a verdict reads, in comparable form.
type runView struct {
	Halted    bool
	ExecErr   string
	Steps     int
	Cycles    uint64
	Events    int
	Responses string
}

func viewOf(r RunResult) runView {
	v := runView{Halted: r.Halted, Steps: r.Steps, Cycles: r.Cycles, Events: r.Events,
		Responses: fmt.Sprintf("%x", r.Responses)}
	if r.ExecErr != nil {
		v.ExecErr = r.ExecErr.Error()
	}
	return v
}

// screenSets screens params on bus with a fresh batch under the runner's
// thresholds, its kernel on one goroutine.
func screenSets(t testing.TB, r *Runner, bus core.BusID, params []*crosstalk.Params) *batchPlan {
	t.Helper()
	b, err := crosstalk.NewBatch(params, r.models[bus].Thresholds)
	if err != nil {
		t.Fatal(err)
	}
	bplan, err := r.batchScreen(context.Background(), bus, b, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return bplan
}

// resumeFiring resumes session s for defCh alone: ResumeGroup with a group
// of one whose fire-point lookup is next.
func resumeFiring(c target.Core, s int, bus core.BusID, defCh *crosstalk.Channel, next func(t int) int) (RunResult, error) {
	res, _, err := c.ResumeGroup(s, bus, []*crosstalk.Channel{defCh}, func([]int) func(int) int { return next })
	if err != nil {
		return RunResult{}, err
	}
	return res[0], nil
}

// checkDivergentPairs screens params on bus and, for every divergent
// (defect, session) pair, requires resumeFiring with the sweep's mask
// lookup to return what Core.Run returns, and the Resume adapter to return
// exactly what resumeFiring returns. It returns the number of pairs.
func checkDivergentPairs(t *testing.T, r *Runner, bus core.BusID, params []*crosstalk.Params) int {
	t.Helper()
	bplan := screenSets(t, r, bus, params)
	pairs := 0
	for d, first := range bplan.first {
		if first == nil {
			continue
		}
		defCh, err := crosstalk.NewChannel(params[d], r.models[bus].Thresholds)
		if err != nil {
			t.Fatal(err)
		}
		for s, k := range first {
			if k < 0 {
				continue
			}
			pairs++
			want, err := r.core.Run(s, bus, params[d])
			if err != nil {
				t.Fatal(err)
			}
			got, err := resumeFiring(r.core, s, bus, defCh, bplan.firing(s, []int{d}))
			if err != nil {
				t.Fatal(err)
			}
			if viewOf(got) != viewOf(want) {
				t.Errorf("defect %d session %d: resumeFiring %+v, Run %+v", d, s, viewOf(got), viewOf(want))
			}
			adapted, err := r.core.Resume(s, bus, defCh, int(k))
			if err != nil {
				t.Fatal(err)
			}
			if viewOf(adapted) != viewOf(got) || adapted.Executed != got.Executed {
				t.Errorf("defect %d session %d: Resume %+v executed %d, resumeFiring %+v executed %d",
					d, s, viewOf(adapted), adapted.Executed, viewOf(got), got.Executed)
			}
		}
	}
	return pairs
}

// TestResumeFiringMatchesRunProperty is the differential-resume exactness
// property over every divergent (defect, session) pair of 1000-defect
// libraries, seeds 1-3, on both Parwan buses, and of a widebus64 library:
// each resumed result equals the Fig. 9 reference run, and the Resume
// adapter's equals resumeFiring's.
func TestResumeFiringMatchesRunProperty(t *testing.T) {
	size, seeds := 1000, []int64{1, 2, 3}
	if testing.Short() {
		size, seeds = 150, []int64{1}
	}
	for _, name := range []string{"parwan", "widebus64"} {
		tgt, err := target.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := tgt.Generate(target.GenSpec{})
		if err != nil {
			t.Fatal(err)
		}
		models, err := tgt.BusModels(0)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewTargetRunner(tgt, plan, models)
		if err != nil {
			t.Fatal(err)
		}
		for bus, m := range models {
			for _, seed := range seeds {
				lib, err := defects.Generate(m.Nominal, m.Thresholds, defects.Config{Size: size, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				params := make([]*crosstalk.Params, len(lib.Defects))
				for i, d := range lib.Defects {
					params[i] = d.Params
				}
				pairs := checkDivergentPairs(t, r, core.BusID(bus), params)
				t.Logf("%s %s seed %d: %d divergent pairs", name, plan.BusName(core.BusID(bus)), seed, pairs)
			}
		}
	}
}

// TestResumeExecutedStepsPinned pins the instructions resumed execution
// executes on the default plan's seed-1 1000-defect libraries. Stepping
// every divergent pair from its first divergence's snapshot to the end
// executes 316,602 (address bus) and 444,904 (data bus) instructions;
// resuming each pair differentially on its own executes 52,305 and
// 134,784. Grouped resume, which runs the pairs that share a first
// divergence as one execution, must stay within a fifth of the latter.
func TestResumeExecutedStepsPinned(t *testing.T) {
	plan, err := core.Generate(core.GenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		bus         core.BusID
		setup       BusSetup
		want, alone int64
	}{
		{core.AddrBus, addr, 6500, 52305},
		{core.DataBus, data, 21150, 134784},
	} {
		r, err := NewRunner(plan, addr, data)
		if err != nil {
			t.Fatal(err)
		}
		lib, err := defects.Generate(c.setup.Nominal, c.setup.Thresholds, defects.Config{Size: 1000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Campaign(c.bus, lib); err != nil {
			t.Fatal(err)
		}
		got := r.Stats().ExecutedSteps
		if got != c.want {
			t.Errorf("%v bus: resumed execution executed %d instructions, pinned %d", c.bus, got, c.want)
		}
		if 5*got > c.alone {
			t.Errorf("%v bus: %d executed instructions is more than a fifth of per-pair resume's %d", c.bus, got, c.alone)
		}
	}
}

// handBuilt is a one-session Parwan plan assembled from src, its runner,
// and the screening plan of one defect on the data bus: wire 0's couplings
// scaled to 1.05 Cth, which fires on the delay transition 0x01 -> 0xfe
// (wire 0 falling against every other wire rising). Each program below
// starts with "lda 1:fe": fetching its offset byte is that transition, so
// the CPU receives 0xff and loads 1:ff instead of 1:fe.
type handBuilt struct {
	r     *Runner
	p     *crosstalk.Params
	defCh *crosstalk.Channel
	bplan *batchPlan
}

// handRunner assembles src into a one-session Parwan plan that unloads
// cells and builds its runner.
func handRunner(t *testing.T, src string, stepLimit int, cells ...uint16) *Runner {
	t.Helper()
	im, _, err := parwan.AssembleString(src)
	if err != nil {
		t.Fatal(err)
	}
	plan := &core.Plan{Programs: []*core.TestProgram{{Image: im, StepLimit: stepLimit, ResponseCells: cells}}}
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func buildHand(t *testing.T, src string, stepLimit int, cells ...uint16) handBuilt {
	t.Helper()
	r := handRunner(t, src, stepLimit, cells...)
	_, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	p := singleWireDefect(t, data, 0, 1.05)
	defCh, err := crosstalk.NewChannel(p, data.Thresholds)
	if err != nil {
		t.Fatal(err)
	}
	bplan := screenSets(t, r, core.DataBus, []*crosstalk.Params{p})
	// The defect must fire on the trigger alone: the offset fetch of the
	// first instruction, transaction 1.
	var fires []int
	for tx, mask := range bplan.masks[0] {
		if mask[0]&1 != 0 {
			fires = append(fires, tx)
		}
	}
	if len(fires) != 1 || fires[0] != 1 {
		t.Fatalf("defect fires on golden transactions %v, want [1]", fires)
	}
	return handBuilt{r: r, p: p, defCh: defCh, bplan: bplan}
}

// resume runs the session differentially and checks it against Core.Run.
func (h handBuilt) resume(t *testing.T) (got, golden RunResult) {
	t.Helper()
	want, err := h.r.core.Run(0, core.DataBus, h.p)
	if err != nil {
		t.Fatal(err)
	}
	got, err = resumeFiring(h.r.core, 0, core.DataBus, h.defCh, h.bplan.firing(0, []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	if viewOf(got) != viewOf(want) {
		t.Fatalf("resumeFiring %+v, Run %+v", viewOf(got), viewOf(want))
	}
	return got, h.r.golden[0]
}

// hangSrc branches into loop when the trigger loads 1:ff's zero instead of
// 1:fe's 0x10; the golden run halts.
const hangSrc = `
	lda 1:fe
	bra_z loop
halt:	jmp halt
loop:	%s
	jmp loop
	.org 1:fe
	.byte 0x10, 0x00
`

// TestResumeHangNeverRepeats: a hang whose loop adds 2 to the counter it
// stores never repeats its full state before the step limit (the counter's
// period is 128 iterations, 512 instructions), so the run steps every
// instruction from the divergence to the limit. The counter stays odd, so
// no transfer of it switches wire 0 and the defect never fires in the loop.
func TestResumeHangNeverRepeats(t *testing.T) {
	const limit = 400
	h := buildHand(t, fmt.Sprintf(hangSrc, `lda 1:20
	add 1:21
	sta 1:20`)+`
	.org 1:20
	.byte 1, 2
`, limit, 0x120)
	got, _ := h.resume(t)
	if got.Halted || got.ExecErr != nil || got.Steps != limit {
		t.Fatalf("run %+v is not a hang at the step limit", viewOf(got))
	}
	if got.Executed != limit {
		t.Errorf("executed %d instructions, want all %d: nothing repeats", got.Executed, limit)
	}
}

// TestResumeHangRepeats: loops whose full state repeats — one storing an
// unchanged value, one complementing the cell it stores so memory repeats
// only every second iteration — are fast-forwarded: far fewer instructions
// execute than the run retires.
func TestResumeHangRepeats(t *testing.T) {
	const limit = 4000
	for name, body := range map[string]string{
		"same value":  "lda 1:20\n\tsta 1:20",
		"alternating": "lda 1:20\n\tcma\n\tsta 1:20",
	} {
		t.Run(name, func(t *testing.T) {
			h := buildHand(t, fmt.Sprintf(hangSrc, body), limit, 0x120)
			got, _ := h.resume(t)
			if got.Halted || got.ExecErr != nil || got.Steps != limit {
				t.Fatalf("run %+v is not a hang at the step limit", viewOf(got))
			}
			if got.Executed >= limit/10 {
				t.Errorf("executed %d of %d instructions: the repeat was not skipped", got.Executed, limit)
			}
		})
	}
}

// rejoinSrc stores the trigger's wrong load (0x20 from 1:ff, not 0x10 from
// 1:fe) into response cell 2:00, then reloads a constant, which returns the
// machine to the golden state with 2:00 as the delta. %s follows.
const rejoinSrc = `
	lda 1:fe
	sta 2:00
	lda 1:10
	lda 1:10
	lda 1:10
	lda 1:10
	lda 1:10
	%s
halt:	jmp halt
	.org 1:10
	.byte 0x05
	.org 1:fe
	.byte 0x10, 0x20
`

// TestResumeRejoinGoldenTail: the golden run never reads the delta cell
// again and the defect never fires again, so the run rejoins after three
// instructions and ends as the golden run does, with the delta cell's wrong
// value in its responses.
func TestResumeRejoinGoldenTail(t *testing.T) {
	h := buildHand(t, fmt.Sprintf(rejoinSrc, "lda 1:10"), 100, 0x200)
	got, golden := h.resume(t)
	if got.Responses[0] == golden.Responses[0] {
		t.Errorf("response %#x equals golden: the delta cell was lost", got.Responses[0])
	}
	if got.Executed != 3 {
		t.Errorf("executed %d instructions, want 3 (lda, sta, lda, then the golden tail)", got.Executed)
	}
}

// TestResumeRejoinStopsAtDeltaRead: the golden run later reads the delta
// cell and stores what it read into a second response cell, so the run
// jumps from its rejoin to that read, not to the end; a run that skipped the
// read would report the golden value in 2:01.
func TestResumeRejoinStopsAtDeltaRead(t *testing.T) {
	h := buildHand(t, fmt.Sprintf(rejoinSrc, "lda 2:00\n\tsta 2:01\n\tlda 1:10"), 100, 0x200, 0x201)
	got, golden := h.resume(t)
	if got.Responses[1] == golden.Responses[1] {
		t.Errorf("response 2:01 %#x equals golden: the jump passed the delta read", got.Responses[1])
	}
	if got.Executed != 6 {
		t.Errorf("executed %d instructions, want 6 (three to the rejoin, three from the read)", got.Executed)
	}
}

// FuzzResumeFiringMatchesRun drives the differential resume with random
// perturbations of either Parwan bus: for the session chosen, resumeFiring
// with the screening sweep's lookup must return what Core.Run returns,
// whether the session diverges or not.
func FuzzResumeFiringMatchesRun(f *testing.F) {
	plan, err := core.Generate(core.GenConfig{})
	if err != nil {
		f.Fatal(err)
	}
	addr, data, err := DefaultSetups()
	if err != nil {
		f.Fatal(err)
	}
	r, err := NewRunner(plan, addr, data)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(1), 0.45, false, uint8(0))
	f.Add(int64(2), 0.45, true, uint8(0))
	f.Add(int64(3), 0.8, false, uint8(1))
	f.Add(int64(4), 0.3, true, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, sigma float64, dataBus bool, session uint8) {
		if math.IsNaN(sigma) || math.IsInf(sigma, 0) {
			return
		}
		sigma = math.Mod(math.Abs(sigma), 2)
		bus := core.AddrBus
		if dataBus {
			bus = core.DataBus
		}
		m := r.models[bus]
		p := defects.Perturb(m.Nominal, sigma, rand.New(rand.NewSource(seed)))
		defCh, err := crosstalk.NewChannel(p, m.Thresholds)
		if err != nil {
			return // not a valid channel; nothing to simulate
		}
		bplan := screenSets(t, r, bus, []*crosstalk.Params{p})
		s := int(session) % len(plan.Programs)
		masks := bplan.masks[s]
		next := func(t int) int {
			for ; t < len(masks) && masks[t][0]&1 == 0; t++ {
			}
			return t
		}
		want, err := r.core.Run(s, bus, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := resumeFiring(r.core, s, bus, defCh, next)
		if err != nil {
			t.Fatal(err)
		}
		if viewOf(got) != viewOf(want) {
			t.Fatalf("seed %d sigma %v %v session %d: resumeFiring %+v, Run %+v",
				seed, sigma, bus, s, viewOf(got), viewOf(want))
		}
	})
}
