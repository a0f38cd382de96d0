package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/defects"
	"repro/internal/logic"
	"repro/internal/maf"
	"repro/internal/parwan"
	"repro/internal/soc"
	"repro/internal/target"
)

// checkGroups screens params on bus and runs every group of the screen's
// divergent pairs as the campaign does: each member's result must equal
// Core.Run's for the member, and the instructions the group executed must
// cover every member's own count. It returns the number of groups and of
// members.
func checkGroups(t *testing.T, r *Runner, bus core.BusID, params []*crosstalk.Params) (groups, members int) {
	t.Helper()
	bplan := screenSets(t, r, bus, params)
	all := make([]int, len(params))
	for i := range all {
		all[i] = i
	}
	for _, g := range bplan.groups(all) {
		res, total, err := r.resumeGroup(bus, bplan, g)
		if err != nil {
			t.Fatal(err)
		}
		most := 0
		for j, d := range g.members {
			want, err := r.core.Run(g.session, bus, params[d])
			if err != nil {
				t.Fatal(err)
			}
			if viewOf(res[j]) != viewOf(want) {
				t.Errorf("defect %d session %d in a group of %d: ResumeGroup %+v, Run %+v",
					d, g.session, len(g.members), viewOf(res[j]), viewOf(want))
			}
			most = max(most, res[j].Executed)
		}
		if total < most {
			t.Errorf("session %d group of %d executed %d instructions, fewer than a member's %d",
				g.session, len(g.members), total, most)
		}
		groups++
		members += len(g.members)
	}
	return groups, members
}

// TestResumeGroupMatchesRunProperty is the grouped-resume exactness
// property over every group of 1000-defect libraries, seeds 1-3, on both
// Parwan buses and on widebus64: each member's result equals the Fig. 9
// reference run.
func TestResumeGroupMatchesRunProperty(t *testing.T) {
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
				groups, members := checkGroups(t, r, core.BusID(bus), params)
				t.Logf("%s %s seed %d: %d divergent pairs in %d groups", name, plan.BusName(core.BusID(bus)), seed, members, groups)
			}
		}
	}
}

// pairCoupled returns a copy of p with the coupling between wires i and j
// raised until wire i's net coupling is factor·Cth: a second defective wire
// that fires only where wire i switches against (nearly) every other wire.
func pairCoupled(setup BusSetup, p *crosstalk.Params, i, j int, factor float64) *crosstalk.Params {
	q := p.Clone()
	add := factor*setup.Thresholds.Cth - q.NetCoupling(i)
	q.Cc[i][j] += add
	q.Cc[j][i] += add
	return q
}

// splitHand is a one-session Parwan plan assembled from src with its
// runner, and a group of two defects on one bus that share their first
// divergence.
type splitHand struct {
	r      *Runner
	bus    core.BusID
	params []*crosstalk.Params
	bplan  *batchPlan
}

func buildSplit(t *testing.T, src string, stepLimit int, bus core.BusID, params []*crosstalk.Params, cells ...uint16) splitHand {
	t.Helper()
	r := handRunner(t, src, stepLimit, cells...)
	return splitHand{r: r, bus: bus, params: params, bplan: screenSets(t, r, bus, params)}
}

// resume runs the defects as the one group they form, checks each member's
// result against Core.Run, and requires the two results to differ: the
// second member left the group. It returns the results and the
// instructions executed.
func (h splitHand) resume(t *testing.T) ([]RunResult, int) {
	t.Helper()
	groups := h.bplan.groups([]int{0, 1})
	if len(groups) != 1 || len(groups[0].members) != 2 {
		t.Fatalf("the defects form groups %+v, want one group of both", groups)
	}
	res, total, err := h.r.resumeGroup(h.bus, h.bplan, groups[0])
	if err != nil {
		t.Fatal(err)
	}
	for d, p := range h.params {
		want, err := h.r.core.Run(0, h.bus, p)
		if err != nil {
			t.Fatal(err)
		}
		if viewOf(res[d]) != viewOf(want) {
			t.Errorf("member %d: ResumeGroup %+v, Run %+v", d, viewOf(res[d]), viewOf(want))
		}
	}
	if viewOf(res[0]) == viewOf(res[1]) {
		t.Errorf("both members end in %+v: the second never left the group", viewOf(res[0]))
	}
	return res, total
}

// firstDifference runs the session in full once per defect, traced, and
// returns the first transaction on which the two runs' defective-bus
// transfers differ (driven or received word, or event count), with both
// traces.
func (h splitHand) firstDifference(t *testing.T) (int, [2][]soc.Transaction) {
	t.Helper()
	prog := h.r.plan.Programs[0]
	var traces [2][]soc.Transaction
	for d, p := range h.params {
		chs := [2]*crosstalk.Channel{}
		for bus, m := range h.r.models {
			params := m.Nominal
			if core.BusID(bus) == h.bus {
				params = p
			}
			ch, err := crosstalk.NewChannel(params, m.Thresholds)
			if err != nil {
				t.Fatal(err)
			}
			chs[bus] = ch
		}
		sys, err := soc.New(soc.Config{AddrChannel: chs[core.AddrBus], DataChannel: chs[core.DataBus], Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		sys.LoadImage(prog.Image)
		sys.CPU.PC = prog.Entry
		_, _ = sys.Run(prog.StepLimit)
		traces[d] = sys.Trace()
	}
	key := func(x soc.Transaction) string {
		if h.bus == core.AddrBus {
			return fmt.Sprint(x.Addr, x.AddrRecv, len(x.AddrEvents))
		}
		return fmt.Sprint(x.Write, x.Data, x.DataRecv, len(x.DataEvents))
	}
	for i := 0; i < min(len(traces[0]), len(traces[1])); i++ {
		if key(traces[0][i]) != key(traces[1][i]) {
			return i, traces
		}
	}
	t.Fatal("the two defects' runs transfer identically")
	return 0, traces
}

// dataPair is two data-bus defects that fire alike on the transition
// 0x01 -> 0xfe, latching 0xff with one event: wire 0's couplings at 1.05
// Cth, and the same with wires 5 and 6 coupled so that wire 5 fires too,
// on the transition 0x20 -> 0xdf.
func dataPair(t *testing.T) []*crosstalk.Params {
	t.Helper()
	_, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	a := singleWireDefect(t, data, 0, 1.05)
	params := []*crosstalk.Params{a, pairCoupled(data, a, 5, 6, 1.05)}
	for _, c := range []struct {
		prev, next uint64
		want       [2]string // each defect's latched word and event count
	}{
		{0x01, 0xfe, [2]string{"ff/1", "ff/1"}},
		{0x20, 0xdf, [2]string{"df/0", "ff/1"}},
	} {
		var got [2]string
		for d, p := range params {
			ch, err := crosstalk.NewChannel(p, data.Thresholds)
			if err != nil {
				t.Fatal(err)
			}
			recv, events := ch.Transmit(logic.NewWord(c.prev, 8), logic.NewWord(c.next, 8), maf.Forward)
			got[d] = fmt.Sprintf("%02x/%d", recv.Uint64(), len(events))
		}
		if got != c.want {
			t.Fatalf("transition %02x -> %02x latches %v, want %v", c.prev, c.next, got, c.want)
		}
	}
	return params
}

// TestGroupSplitOnOperandFetch: both members fire alike on the trigger, the
// offset fetch of "lda 1:fe", then agree on the opcode fetch of "and 0:df"
// and differ on its offset fetch (0x20 -> 0xdf), where the second member
// latches 0xff and ands 0:ff. It leaves at the start of the instruction and
// executes it again, opcode fetch included.
func TestGroupSplitOnOperandFetch(t *testing.T) {
	h := buildSplit(t, `
	lda 1:fe
	and 0:df
	sta 2:00
halt:	jmp halt
	.org 0:df
	.byte 0x0f
	.org 0:ff
	.byte 0xf0
	.org 1:fe
	.byte 0x10, 0x3c
`, 100, core.DataBus, dataPair(t), 0x200)
	at, traces := h.firstDifference(t)
	if at != 4 || traces[0][3].DataRecv != 0x20 || traces[0][4].Data != 0xdf {
		t.Fatalf("runs first differ on transaction %d (%v, %v), want 4, the offset fetch after the opcode fetch of and",
			at, traces[0][at], traces[1][at])
	}
	h.resume(t)
}

// TestGroupSplitInsideRepeatingHang: both members branch into a loop on
// the trigger that adds 2 to a counter, on even addresses only, so that
// wire 0 never switches again. The second member leaves on the loop's store
// of 0x5e, some 190 instructions in, after the loop check saved its state:
// wire 5 falls there against wires 1-4 and 6 rising, and it stores 0x7e.
// Each member's hang repeats with its own period, and each group skips its
// periods.
func TestGroupSplitInsideRepeatingHang(t *testing.T) {
	const limit = 6000
	h := buildSplit(t, fmt.Sprintf(hangSrc, `lda 2:20
	add 2:22
	sta 2:20`)+`
	.org 2:20
	.byte 0x00, 0x00, 0x02
`, limit, core.DataBus, dataPair(t), 0x220)
	at, traces := h.firstDifference(t)
	if x, y := traces[0][at], traces[1][at]; at < 400 || !x.Write || x.DataRecv != 0x5e || y.DataRecv != 0x7e {
		t.Fatalf("runs first differ on transaction %d (%v, %v), want the loop's first store of 0x5e", at, x, y)
	}
	res, total := h.resume(t)
	for d, r := range res {
		if r.Halted || r.ExecErr != nil || r.Steps != limit {
			t.Fatalf("member %d: run %+v is not a hang at the step limit", d, viewOf(r))
		}
		if r.Executed >= limit {
			t.Errorf("member %d executed %d of %d instructions: its repeat was not skipped", d, r.Executed, limit)
		}
	}
	if total >= res[0].Executed+res[1].Executed {
		t.Errorf("the group executed %d instructions, the members %d and %d on their own ways: nothing was shared",
			total, res[0].Executed, res[1].Executed)
	}
}

// TestGroupSplitUndoesStore: two address-bus defects on wire 0 fire on the
// first instruction's store of the zero accumulator, 0x001 -> 0xffe, but
// latch different addresses: 0xfff, and 0xffd with a second event. The
// first member's store lands in f:ff before the second member's verdict,
// so the second member's fork must undo it. The second member then loads
// its own store from f:fd, where the golden run loads 0x11, so it steps to
// the end and unloads f:ff from memory: without the undo, f:ff would read
// zero.
func TestGroupSplitUndoesStore(t *testing.T) {
	addr, _, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	params := []*crosstalk.Params{singleWireDefect(t, addr, 0, 1.05), singleWireDefect(t, addr, 0, 1.7)}
	h := buildSplit(t, `
	sta f:fe
	lda f:fd
halt:	jmp halt
	.org f:fd
	.byte 0x11, 0x22, 0x33
`, 100, core.AddrBus, params, 0xffd, 0xffe, 0xfff)
	at, traces := h.firstDifference(t)
	if x := traces[0][at]; !x.Write || x.AddrRecv != 0xfff || traces[1][at].AddrRecv != 0xffd {
		t.Fatalf("runs first differ on transaction %d (%v, %v), want the store landing in f:ff and f:fd",
			at, x, traces[1][at])
	}
	res, _ := h.resume(t)
	if got := fmt.Sprintf("%x", res[1].Responses); got != "002233" {
		t.Errorf("second member's responses %s, want 002233: only its own store", got)
	}
}

// randomProgramPlan builds a one-session Parwan plan from rng: up to 24
// random instructions from 0:00 on, drawn from all 23 opcodes, then a halt
// (a jump to itself). Memory operands address data page 1, whose cells hold
// random bytes and whose first eight are the response cells, one applied
// test each; one in eight addresses the code instead, so stores land in
// code, as jsr's always do. Jumps, jsr and branches target the code;
// indirect jumps take their target from a table of code offsets at 0:e0.
func randomProgramPlan(rng *rand.Rand) *core.Plan {
	ops := make([]parwan.Op, 1+rng.Intn(24))
	end := 0
	for i := range ops {
		ops[i] = parwan.Op(rng.Intn(int(parwan.ASR) + 1))
		end += ops[i].Size()
	}
	code := func() uint16 { return uint16(rng.Intn(end + 2)) } // any code byte or the halt
	data := func() uint16 { return 0x100 | uint16(rng.Intn(256)) }
	im := parwan.NewImage()
	pc := uint16(0)
	for _, op := range ops {
		in := parwan.Instruction{Op: op}
		switch {
		case op == parwan.JMP || op == parwan.JSR || op.IsBranch():
			in.Target = code()
		case op == parwan.JMPI:
			in.Target = 0x0e0 + uint16(rng.Intn(32))
		case op.IsFullAddress() && !op.IsIndirect() && rng.Intn(8) == 0:
			in.Target = code()
		case op.IsFullAddress():
			in.Target = data()
		}
		pc = mustSet(im, pc, in)
	}
	mustSet(im, pc, parwan.Instruction{Op: parwan.JMP, Target: pc})
	for cell := uint16(0x0e0); cell < 0x100; cell++ {
		_ = im.Set(cell, byte(code()))
	}
	for cell := uint16(0x100); cell < 0x200; cell++ {
		_ = im.Set(cell, byte(rng.Intn(256)))
	}
	prog := &core.TestProgram{Image: im, StepLimit: 400}
	for k, mt := range maf.Tests(8, false) {
		cell := uint16(0x100 + k)
		prog.ResponseCells = append(prog.ResponseCells, cell)
		prog.Applied = append(prog.Applied, core.AppliedTest{MA: mt, Bus: core.DataBus, ResponseCells: []uint16{cell}, Order: k})
		if k == 7 {
			break
		}
	}
	return &core.Plan{Programs: []*core.TestProgram{prog}}
}

// mustSet places in at pc and returns the address after it.
func mustSet(im *parwan.Image, pc uint16, in parwan.Instruction) uint16 {
	next, err := im.SetInstruction(pc, in)
	if err != nil {
		panic(err)
	}
	return next
}

// FuzzRandomProgramEnginesAgree runs random Parwan programs (see
// randomProgramPlan) whose golden run halts against fixed 96-defect
// libraries of both buses: the Batch campaign's outcomes must equal the
// Execute campaign's, defect by defect. Programs NewRunner refuses are
// skipped.
func FuzzRandomProgramEnginesAgree(f *testing.F) {
	addr, data, err := DefaultSetups()
	if err != nil {
		f.Fatal(err)
	}
	libs := make(map[core.BusID]*defects.Library)
	for bus, setup := range map[core.BusID]BusSetup{core.AddrBus: addr, core.DataBus: data} {
		if libs[bus], err = defects.Generate(setup.Nominal, setup.Thresholds, defects.Config{Size: 96, Seed: 1, Sigma: 0.8}); err != nil {
			f.Fatal(err)
		}
	}
	for _, seed := range []int64{2, 3, 6, 9, 11, 13, 14, 15} { // programs that halt
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r, err := NewRunner(randomProgramPlan(rand.New(rand.NewSource(seed))), addr, data)
		if err != nil {
			return // the golden run does not halt cleanly
		}
		for bus, lib := range libs {
			want, err := r.CampaignCtx(context.Background(), bus, lib, CampaignOpts{Workers: 1, Engine: Execute})
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.CampaignCtx(context.Background(), bus, lib, CampaignOpts{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Outcomes {
				if w, g := comparableOf(want.Outcomes[i]), comparableOf(got.Outcomes[i]); !reflect.DeepEqual(w, g) {
					t.Fatalf("seed %d %v defect %d: Batch %+v, Execute %+v", seed, bus, i, g, w)
				}
			}
		}
	})
}
