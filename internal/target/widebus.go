package target

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/logic"
	"repro/internal/maf"
)

// wideBusTarget is a synthetic system: one unidirectional bus of 2..64 wires
// driven by a scripted initiator. There is no CPU — the "program" is the
// exact word sequence the initiator drives, so every MA test is applicable
// (no placement constraints, no address conflicts) and the response is the
// word the receiver latches at each step. It exists to prove the 4N MA-test
// method and the two-tier engine generalize past the paper's Parwan buses,
// and to exercise widths the packed transmit memo cannot cover.
type wideBusTarget struct {
	width int
}

// WideBus returns a synthetic scripted-bus backend of the given wire count.
func WideBus(width int) (Target, error) {
	if width < 2 || width > 64 {
		return nil, fmt.Errorf("target: wide-bus width %d out of range [2,64]", width)
	}
	return wideBusTarget{width: width}, nil
}

// MustWideBus is WideBus for a statically known valid width; it panics on a
// bad one. For tests and examples.
func MustWideBus(width int) Target {
	t, err := WideBus(width)
	if err != nil {
		panic(err)
	}
	return t
}

func (t wideBusTarget) Name() string { return fmt.Sprintf("widebus%d", t.width) }

func (t wideBusTarget) Topology() Topology {
	return Topology{Channels: []ChannelDesc{
		{Name: "bus", Width: t.width, Bidirectional: false, Role: RoleBus},
	}}
}

func (t wideBusTarget) BusModels(cthFactor float64) ([]BusModel, error) {
	n := crosstalk.Nominal(t.width)
	th, err := crosstalk.DeriveThresholds(n, cthFactor)
	if err != nil {
		return nil, err
	}
	return []BusModel{{Nominal: n, Thresholds: th}}, nil
}

// stride is the number of response cells (bytes) one script step occupies.
func (t wideBusTarget) stride() int { return (t.width + 7) / 8 }

// Generate builds the scripted plan: each MA test contributes its (v1, v2)
// pair as two consecutive script steps, and observes the receiver's latched
// word at both. Compaction does not apply to a scripted initiator (there is
// no accumulator); the flag is ignored and the plan records it false.
//
// MaxSessions, when > 1, splits the tests across up to that many
// self-contained sessions (each with its own script and response-cell space),
// as evenly as the test count allows while preserving test order. A scripted
// initiator has no placement conflicts, so the split is purely structural —
// it exists so in-field slicing (internal/infield) has session boundaries to
// partition at. Zero or one keeps the classic single-session plan, byte for
// byte.
func (t wideBusTarget) Generate(spec GenSpec) (*core.Plan, error) {
	if spec.OnlyChannel != "" && spec.OnlyChannel != "bus" {
		return nil, fmt.Errorf("target: %s has no channel %q (its only channel is bus)", t.Name(), spec.OnlyChannel)
	}
	var tests []maf.Test
	for _, mt := range maf.Tests(t.width, false) {
		if spec.Filter != nil && !spec.Filter(mt.Fault) {
			continue
		}
		tests = append(tests, mt)
	}
	sessions := 1
	if spec.MaxSessions > 1 && len(tests) > 0 {
		sessions = spec.MaxSessions
		if sessions > len(tests) {
			sessions = len(tests)
		}
	}
	plan := &core.Plan{Target: t.Name(), Channels: []string{"bus"}}
	base, rem := len(tests)/sessions, len(tests)%sessions
	idx := 0
	for s := 0; s < sessions; s++ {
		n := base
		if s < rem {
			n++
		}
		plan.Programs = append(plan.Programs, t.session(s, tests[idx:idx+n]))
		idx += n
	}
	return plan, nil
}

// session builds one self-contained scripted session from a run of tests.
func (t wideBusTarget) session(session int, tests []maf.Test) *core.TestProgram {
	stride := t.stride()
	prog := &core.TestProgram{Session: session, ScriptWidth: t.width}
	for _, mt := range tests {
		step := len(prog.Script)
		cells := make([]uint16, 0, 2*stride)
		for s := step; s < step+2; s++ {
			for b := 0; b < stride; b++ {
				cells = append(cells, uint16(s*stride+b))
			}
		}
		prog.Applied = append(prog.Applied, core.AppliedTest{
			MA: mt, Bus: 0, Scheme: core.ScriptDirect,
			Order: len(prog.Applied), ResponseCells: cells,
		})
		prog.Script = append(prog.Script, mt.V1.Uint64(), mt.V2.Uint64())
	}
	prog.StepLimit = len(prog.Script)
	prog.ResponseCells = make([]uint16, len(prog.Script)*stride)
	for i := range prog.ResponseCells {
		prog.ResponseCells[i] = uint16(i)
	}
	return prog
}

func (t wideBusTarget) NewCore(plan *core.Plan, models []BusModel) (Core, error) {
	if err := CheckPlan(t, plan); err != nil {
		return nil, err
	}
	if err := checkModels(t, models); err != nil {
		return nil, err
	}
	for _, prog := range plan.Programs {
		if prog.Script == nil && len(prog.Applied) > 0 {
			return nil, fmt.Errorf("target: %s session %d has no script", t.Name(), prog.Session)
		}
		if prog.ScriptWidth != t.width {
			return nil, fmt.Errorf("target: %s session %d script is %d wires, target has %d",
				t.Name(), prog.Session, prog.ScriptWidth, t.width)
		}
	}
	n := len(plan.Programs)
	return &wideBusCore{
		width:  t.width,
		stride: t.stride(),
		model:  models[0],
		plan:   plan,
		golden: make([]RunResult, n),
		steps:  make([][]BusStep, n),
		cells:  make([][][]int32, n),
	}, nil
}

// wideBusCore executes scripted sessions by pure channel arithmetic: the
// initiator drives each script word in order and the receiver's latched word
// is the response. The word held on the bus before step s is always the word
// driven at step s-1 (the initiator holds its line), so defective reception
// never perturbs later transitions — the whole run is a fold over the script.
type wideBusCore struct {
	width  int
	stride int
	model  BusModel
	plan   *core.Plan

	// Per session, recorded by Golden: the golden result and transitions,
	// and cells[s][t], the indexes into ResponseCells of the cells step t's
	// word fills.
	golden []RunResult
	steps  [][]BusStep
	cells  [][][]int32
}

// unload renders the received words into the response cells, in
// ResponseCells order: cell step*stride+b holds byte b (least significant
// first) of step's word, and a cell past the script reads zero.
func (c *wideBusCore) unload(prog *core.TestProgram, recvs []uint64) []uint8 {
	out := make([]uint8, len(prog.ResponseCells))
	for i, cell := range prog.ResponseCells {
		if step := int(cell) / c.stride; step < len(recvs) {
			out[i] = uint8(recvs[step] >> (8 * (int(cell) % c.stride)))
		}
	}
	return out
}

// result wraps the responses in the fixed scripted-run frame: a scripted
// initiator cannot crash or hang, so every run halts after exactly the
// script's steps.
func (c *wideBusCore) result(prog *core.TestProgram, res []uint8, events, executed int) RunResult {
	return RunResult{
		Responses: res,
		Halted:    true,
		Steps:     len(prog.Script),
		Cycles:    uint64(len(prog.Script)),
		Events:    events,
		Executed:  executed,
	}
}

// run drives the whole script through ch.
func (c *wideBusCore) run(prog *core.TestProgram, ch *crosstalk.Channel) RunResult {
	recvs := make([]uint64, len(prog.Script))
	prev, events := logic.NewWord(0, c.width), 0
	for step, word := range prog.Script {
		next := logic.NewWord(word, c.width)
		recv, evs := ch.Transmit(prev, next, maf.Forward)
		events += len(evs)
		recvs[step] = recv.Uint64()
		prev = next
	}
	return c.result(prog, c.unload(prog, recvs), events, len(prog.Script))
}

func (c *wideBusCore) Golden(s int) (RunResult, [][]BusStep, error) {
	prog := c.plan.Programs[s]
	ch, err := crosstalk.NewChannel(c.model.Nominal, c.model.Thresholds)
	if err != nil {
		return RunResult{}, nil, err
	}
	steps := make([]BusStep, len(prog.Script))
	for step, word := range prog.Script {
		steps[step] = BusStep{Prev: logic.NewWord(0, c.width), Next: logic.NewWord(word, c.width), Dir: maf.Forward}
		if step > 0 {
			steps[step].Prev = steps[step-1].Next
		}
	}
	cells := make([][]int32, len(prog.Script))
	for i, cell := range prog.ResponseCells {
		if step := int(cell) / c.stride; step < len(prog.Script) {
			cells[step] = append(cells[step], int32(i))
		}
	}
	res := c.run(prog, ch)
	c.golden[s], c.steps[s], c.cells[s] = res, steps, cells
	return res, [][]BusStep{steps}, nil
}

func (c *wideBusCore) Run(s int, chID core.BusID, defective *crosstalk.Params) (RunResult, error) {
	if chID != 0 {
		return RunResult{}, fmt.Errorf("target: %s has no channel %d", c.plan.TargetName(), chID)
	}
	ch, err := crosstalk.NewChannel(defective, c.model.Thresholds)
	if err != nil {
		return RunResult{}, err
	}
	return c.run(c.plan.Programs[s], ch), nil
}

// ResumeGroup runs each member on its own (see resume): a scripted run is
// a fold over the script, so members share no execution.
func (c *wideBusCore) ResumeGroup(s int, chID core.BusID, chs []*crosstalk.Channel, lookup func(members []int) func(t int) int) ([]RunResult, int, error) {
	if chID != 0 {
		return nil, 0, fmt.Errorf("target: %s has no channel %d", c.plan.TargetName(), chID)
	}
	results := make([]RunResult, len(chs))
	total := 0
	for m, defCh := range chs {
		results[m] = c.resume(s, defCh, lookup([]int{m}))
		total += results[m].Executed
	}
	return results, total, nil
}

// resume copies the golden responses and transmits through defCh only the
// steps next returns: every other step transfers cleanly, so it latches the
// golden word.
func (c *wideBusCore) resume(s int, defCh *crosstalk.Channel, next func(t int) int) RunResult {
	prog, steps, cells := c.plan.Programs[s], c.steps[s], c.cells[s]
	res := append([]uint8(nil), c.golden[s].Responses...)
	events, executed := 0, 0
	for t := next(0); t < len(steps); t = next(t + 1) {
		recv, evs := defCh.Transmit(steps[t].Prev, steps[t].Next, steps[t].Dir)
		events += len(evs)
		executed++
		v := recv.Uint64()
		for _, i := range cells[t] {
			res[i] = uint8(v >> (8 * (int(prog.ResponseCells[i]) % c.stride)))
		}
	}
	return c.result(prog, res, events, executed)
}

// Resume derives the fire-point lookup by transmitting the golden steps
// through defCh from divergeTx on.
func (c *wideBusCore) Resume(s int, chID core.BusID, defCh *crosstalk.Channel, divergeTx int) (RunResult, error) {
	if chID != 0 {
		return RunResult{}, fmt.Errorf("target: %s has no channel %d", c.plan.TargetName(), chID)
	}
	return resumeAlone(c, s, chID, defCh, scanFiring(c.steps[s], defCh, divergeTx))
}
