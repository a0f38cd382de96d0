package target

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/logic"
	"repro/internal/maf"
	"repro/internal/parwan"
	"repro/internal/soc"
)

// parwanTarget is the paper's system: a Parwan CPU and RAM joined by the
// 8-bit bidirectional data bus and the 12-bit unidirectional address bus.
// Channel IDs coincide with the historical core.BusID values (0 = data,
// 1 = addr), which is what keeps the refactored stack byte-identical to the
// pre-target-layer code.
type parwanTarget struct{}

// Parwan returns the Parwan CPU-memory backend.
func Parwan() Target { return parwanTarget{} }

func (parwanTarget) Name() string { return "parwan" }

func (parwanTarget) Topology() Topology {
	return Topology{Channels: []ChannelDesc{
		{Name: "data", Width: parwan.DataBits, Bidirectional: true, Role: RoleData},
		{Name: "addr", Width: parwan.AddrBits, Bidirectional: false, Role: RoleAddress},
	}}
}

func (parwanTarget) BusModels(cthFactor float64) ([]BusModel, error) {
	dn := crosstalk.Nominal(parwan.DataBits)
	dt, err := crosstalk.DeriveThresholds(dn, cthFactor)
	if err != nil {
		return nil, err
	}
	an := crosstalk.Nominal(parwan.AddrBits)
	at, err := crosstalk.DeriveThresholds(an, cthFactor)
	if err != nil {
		return nil, err
	}
	return []BusModel{{Nominal: dn, Thresholds: dt}, {Nominal: an, Thresholds: at}}, nil
}

func (t parwanTarget) Generate(spec GenSpec) (*core.Plan, error) {
	if spec.OnlyChannel != "" {
		if _, ok := t.Topology().Channel(spec.OnlyChannel); !ok {
			return nil, fmt.Errorf("target: parwan has no channel %q (want data or addr)", spec.OnlyChannel)
		}
	}
	return core.Generate(core.GenConfig{
		Compaction:  spec.Compaction,
		MaxSessions: spec.MaxSessions,
		SkipDataBus: spec.OnlyChannel == "addr",
		SkipAddrBus: spec.OnlyChannel == "data",
		Filter:      spec.Filter,
	})
}

func (t parwanTarget) NewCore(plan *core.Plan, models []BusModel) (Core, error) {
	if err := checkPlanTarget(t, plan); err != nil {
		return nil, err
	}
	if err := checkModels(t, models); err != nil {
		return nil, err
	}
	c := &parwanCore{plan: plan, data: models[core.DataBus], addr: models[core.AddrBus]}
	c.traces = make([]parwanTrace, len(plan.Programs))
	c.images = make([][]byte, len(plan.Programs))
	return c, nil
}

// memWrite is one golden memory store, used to fast-forward RAM state when
// resuming execution from a snapshot.
type memWrite struct {
	tx   int // transaction index of the store
	addr uint16
	data uint8
}

// cpuSnap is the golden machine state at one instruction boundary: enough
// to resume execution exactly as if the program had run from its entry.
type cpuSnap struct {
	tx       int // index of the next transaction at this boundary
	steps    int // instructions retired so far
	pc       uint16
	ac       uint8
	flags    parwan.Flags
	cycles   uint64
	prevAddr uint16 // value held on the address bus
	prevData uint8  // value held on the data bus
	prevCtrl uint8  // command held on the control bus
}

// parwanTrace is the per-session resume state the golden capture records.
type parwanTrace struct {
	writes []memWrite // golden stores in transaction order
	snaps  []cpuSnap  // one per instruction boundary, ascending tx
}

// parwanCore executes Parwan session programs. Golden runs are step-driven
// with per-instruction CPU snapshots; defective full runs build fresh
// systems (the Fig. 9 reference flow verbatim); resumed runs reuse pooled
// execution rigs.
type parwanCore struct {
	plan *core.Plan
	data BusModel
	addr BusModel

	traces []parwanTrace
	images [][]byte

	pool sync.Pool // *execUnit
}

func (c *parwanCore) Golden(s int) (RunResult, [][]BusStep, error) {
	prog := c.plan.Programs[s]
	if prog.Image == nil {
		return RunResult{}, nil, fmt.Errorf("target: parwan session %d has no memory image", prog.Session)
	}
	addrCh, err := crosstalk.NewChannel(c.addr.Nominal, c.addr.Thresholds)
	if err != nil {
		return RunResult{}, nil, err
	}
	dataCh, err := crosstalk.NewChannel(c.data.Nominal, c.data.Thresholds)
	if err != nil {
		return RunResult{}, nil, err
	}
	sys, err := soc.New(soc.Config{AddrChannel: addrCh, DataChannel: dataCh, Trace: true})
	if err != nil {
		return RunResult{}, nil, err
	}
	sys.LoadImage(prog.Image)
	sys.CPU.PC = prog.Entry

	tr := &c.traces[s]
	steps := 0
	var execErr error
	for steps < prog.StepLimit && !sys.CPU.Halted() {
		snap := cpuSnap{
			tx: sys.Seq(), steps: steps,
			pc: sys.CPU.PC, ac: sys.CPU.AC, flags: sys.CPU.Flags, cycles: sys.CPU.Cycles,
			prevCtrl: soc.CtrlRead,
		}
		if t := sys.Trace(); len(t) > 0 {
			last := t[len(t)-1]
			snap.prevAddr, snap.prevData, snap.prevCtrl = last.Addr, last.Data, last.Ctrl
		}
		tr.snaps = append(tr.snaps, snap)
		if err := sys.CPU.Step(); err != nil {
			execErr = err
			break
		}
		steps++
	}

	res := RunResult{
		Responses: make(map[uint16]uint8, len(prog.ResponseCells)),
		Halted:    sys.CPU.Halted(),
		ExecErr:   execErr,
		Steps:     steps,
		Cycles:    sys.CPU.Cycles,
		Events:    sys.ErrorCount(),
	}
	for _, cell := range prog.ResponseCells {
		res.Responses[cell] = sys.Peek(cell)
	}

	steps2 := make([][]BusStep, 2)
	for _, t := range sys.Trace() {
		steps2[core.AddrBus] = append(steps2[core.AddrBus], BusStep{
			Prev: logic.NewWord(uint64(t.AddrPrev), parwan.AddrBits),
			Next: logic.NewWord(uint64(t.Addr), parwan.AddrBits),
			Dir:  maf.Forward,
		})
		dir := maf.Forward
		if t.Write {
			dir = maf.Reverse
		}
		steps2[core.DataBus] = append(steps2[core.DataBus], BusStep{
			Prev: logic.NewWord(uint64(t.DataPrev), parwan.DataBits),
			Next: logic.NewWord(uint64(t.Data), parwan.DataBits),
			Dir:  dir,
		})
		if t.Write && t.CtrlRecv&soc.CtrlWrite != 0 {
			tr.writes = append(tr.writes, memWrite{tx: t.Seq, addr: t.AddrRecv, data: t.DataRecv})
		}
	}
	c.images[s] = prog.Image.Bytes()
	return res, steps2, nil
}

func (c *parwanCore) Run(s int, ch core.BusID, defective *crosstalk.Params) (RunResult, error) {
	prog := c.plan.Programs[s]
	addrParams, dataParams := c.addr.Nominal, c.data.Nominal
	switch ch {
	case core.AddrBus:
		addrParams = defective
	case core.DataBus:
		dataParams = defective
	default:
		return RunResult{}, fmt.Errorf("target: parwan has no channel %d", ch)
	}
	addrCh, err := crosstalk.NewChannel(addrParams, c.addr.Thresholds)
	if err != nil {
		return RunResult{}, err
	}
	dataCh, err := crosstalk.NewChannel(dataParams, c.data.Thresholds)
	if err != nil {
		return RunResult{}, err
	}
	sys, err := soc.New(soc.Config{AddrChannel: addrCh, DataChannel: dataCh})
	if err != nil {
		return RunResult{}, err
	}
	sys.LoadImage(prog.Image)
	sys.CPU.PC = prog.Entry

	steps, execErr := sys.Run(prog.StepLimit)
	res := RunResult{
		Responses: make(map[uint16]uint8, len(prog.ResponseCells)),
		Halted:    sys.CPU.Halted(),
		ExecErr:   execErr,
		Steps:     steps,
		Cycles:    sys.CPU.Cycles,
		Events:    sys.ErrorCount(),
	}
	for _, cell := range prog.ResponseCells {
		res.Responses[cell] = sys.Peek(cell)
	}
	return res, nil
}

// execUnit is a reusable execution rig: one System plus its nominal
// channels. Units are pooled per core and confined to one goroutine while
// in use. The nominal channels need no memo: no wire of a nominal channel
// is at risk, so every transmit through one is O(1).
type execUnit struct {
	sys    *soc.System
	addrCh *crosstalk.Channel // nominal address channel
	dataCh *crosstalk.Channel // nominal data channel
}

// getUnit takes an execution rig from the pool, building one on first use.
func (c *parwanCore) getUnit() (*execUnit, error) {
	if v := c.pool.Get(); v != nil {
		return v.(*execUnit), nil
	}
	addrCh, err := crosstalk.NewChannel(c.addr.Nominal, c.addr.Thresholds)
	if err != nil {
		return nil, err
	}
	dataCh, err := crosstalk.NewChannel(c.data.Nominal, c.data.Thresholds)
	if err != nil {
		return nil, err
	}
	sys, err := soc.New(soc.Config{AddrChannel: addrCh, DataChannel: dataCh})
	if err != nil {
		return nil, err
	}
	return &execUnit{sys: sys, addrCh: addrCh, dataCh: dataCh}, nil
}

// putUnit returns a rig to the pool, restoring the nominal channels so the
// defective channel of the last run can be collected.
func (c *parwanCore) putUnit(u *execUnit) {
	_ = u.sys.SetChannels(u.addrCh, u.dataCh, nil)
	c.pool.Put(u)
}

// Resume executes the tail of one session on a pooled rig, starting from the
// golden snapshot at the instruction whose execution contains the first
// diverging transaction. Every transaction before the snapshot latched
// golden values (the replay proved it), so the golden machine state at the
// boundary is exactly the defective run's state: re-running from there is
// bit-identical to executing the whole program, at the cost of only the
// suffix. The few transactions between the snapshot and the divergence are
// re-executed and, being clean, reproduce their golden effects.
func (c *parwanCore) Resume(s int, ch core.BusID, defCh *crosstalk.Channel, divergeTx int) (RunResult, error) {
	u, err := c.getUnit()
	if err != nil {
		return RunResult{}, err
	}
	defer c.putUnit(u)

	prog := c.plan.Programs[s]
	tr := &c.traces[s]
	si := searchSnaps(tr.snaps, divergeTx)
	snap := tr.snaps[si]

	sys := u.sys
	if ch == core.AddrBus {
		err = sys.SetChannels(defCh, u.dataCh, nil)
	} else {
		err = sys.SetChannels(u.addrCh, defCh, nil)
	}
	if err != nil {
		return RunResult{}, err
	}
	sys.Reset()
	sys.LoadBytes(c.images[s])
	for _, w := range tr.writes {
		if w.tx >= snap.tx {
			break
		}
		sys.Poke(w.addr, w.data)
	}
	sys.SetHeld(snap.prevAddr, snap.prevData, snap.prevCtrl)
	sys.CPU.PC, sys.CPU.AC, sys.CPU.Flags = snap.pc, snap.ac, snap.flags
	sys.CPU.Cycles, sys.CPU.Steps = snap.cycles, uint64(snap.steps)

	sub, execErr := sys.Run(prog.StepLimit - snap.steps)
	res := RunResult{
		Responses: make(map[uint16]uint8, len(prog.ResponseCells)),
		Halted:    sys.CPU.Halted(),
		ExecErr:   execErr,
		Steps:     snap.steps + sub,
		Cycles:    sys.CPU.Cycles,
		Events:    sys.ErrorCount(),
	}
	for _, cell := range prog.ResponseCells {
		res.Responses[cell] = sys.Peek(cell)
	}
	return res, nil
}

// searchSnaps finds the last snapshot whose next-transaction index is at or
// before tx (binary search over the ascending snaps).
func searchSnaps(snaps []cpuSnap, tx int) int {
	lo, hi := 0, len(snaps)
	for lo < hi {
		mid := (lo + hi) / 2
		if snaps[mid].tx > tx {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo - 1
}
