package target

import (
	"fmt"
	"slices"
	"sort"
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
	if err := CheckPlan(t, plan); err != nil {
		return nil, err
	}
	if err := checkModels(t, models); err != nil {
		return nil, err
	}
	c := &parwanCore{plan: plan, data: models[core.DataBus], addr: models[core.AddrBus]}
	c.traces = make([]parwanTrace, len(plan.Programs))
	return c, nil
}

// memWrite is one golden memory store, used to fast-forward RAM state when
// resuming execution from a snapshot.
type memWrite struct {
	tx   int // transaction index of the store
	addr uint16
	data uint8
}

// machine is the system's state apart from memory: the CPU registers and
// the words the busses hold between transactions. Two runs in equal machine
// states over equal memory execute identically from there on; the cycle
// and step counters only count.
type machine struct {
	pc       uint16
	ac       uint8
	flags    parwan.Flags
	prevAddr uint16 // value held on the address bus
	prevData uint8  // value held on the data bus
	prevCtrl uint8  // command held on the control bus
}

// machineOf reads a system's current machine state.
func machineOf(sys *soc.System) machine {
	m := machine{pc: sys.CPU.PC, ac: sys.CPU.AC, flags: sys.CPU.Flags}
	m.prevAddr, m.prevData, m.prevCtrl = sys.Held()
	return m
}

// cpuSnap is the golden machine state at one instruction boundary: enough
// to resume execution exactly as if the program had run from its entry.
// Snapshot k is the boundary after k retired instructions.
type cpuSnap struct {
	machine
	tx     int // index of the next transaction at this boundary
	cycles uint64
}

// cellAccess is one golden bus access to a memory cell: a read or a store
// at transaction tx, and the cell's contents after it.
type cellAccess struct {
	tx    int32
	val   uint8
	store bool
}

// parwanTrace is the per-session state the golden capture records for
// resumed runs.
type parwanTrace struct {
	image  []byte      // the session's memory image
	golden RunResult   // the golden run's result
	steps  [][]BusStep // golden transitions per channel, one per transaction
	writes []memWrite  // golden stores in transaction order
	snaps  []cpuSnap   // one per instruction boundary, ascending tx
	// access[cellAt[c]:cellAt[c+1]] are cell c's golden accesses in
	// transaction order.
	cellAt []int32
	access []cellAccess
}

// txs returns the number of golden transactions.
func (tr *parwanTrace) txs() int { return len(tr.steps[core.AddrBus]) }

// firstAccess returns the index in cell's golden accesses of the first one
// at or after transaction tx, and the accesses.
func (tr *parwanTrace) firstAccess(cell uint16, tx int) (int, []cellAccess) {
	acc := tr.access[tr.cellAt[cell]:tr.cellAt[cell+1]]
	return sort.Search(len(acc), func(i int) bool { return int(acc[i].tx) >= tx }), acc
}

// goldenAt returns cell's golden contents at transaction boundary tx.
func (tr *parwanTrace) goldenAt(cell uint16, tx int) uint8 {
	i, acc := tr.firstAccess(cell, tx)
	if i == 0 {
		return tr.image[cell]
	}
	return acc[i-1].val
}

// firstRead returns the first golden transaction at or after tx that reads
// cell before any golden store overwrites it, or txs() when there is none.
func (tr *parwanTrace) firstRead(cell uint16, tx int) int {
	if i, acc := tr.firstAccess(cell, tx); i < len(acc) && !acc[i].store {
		return int(acc[i].tx)
	}
	return tr.txs()
}

// writesBetween returns the golden stores of transactions [from, to).
func (tr *parwanTrace) writesBetween(from, to int) []memWrite {
	at := func(tx int) int {
		return sort.Search(len(tr.writes), func(i int) bool { return tr.writes[i].tx >= tx })
	}
	return tr.writes[at(from):at(to)]
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
		tr.snaps = append(tr.snaps, cpuSnap{machine: machineOf(sys), tx: sys.Seq(), cycles: sys.CPU.Cycles})
		if err := sys.CPU.Step(); err != nil {
			execErr = err
			break
		}
		steps++
	}

	res := RunResult{
		Responses: unload(sys, prog),
		Halted:    sys.CPU.Halted(),
		ExecErr:   execErr,
		Steps:     steps,
		Cycles:    sys.CPU.Cycles,
		Events:    sys.ErrorCount(),
		Executed:  steps,
	}

	// The control bus is ideal here, so a write transaction always stores
	// and a read always reads the addressed cell.
	trace := sys.Trace()
	steps2 := make([][]BusStep, 2)
	tr.cellAt = make([]int32, parwan.MemSize+1)
	for _, t := range trace {
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
		if t.Write {
			tr.writes = append(tr.writes, memWrite{tx: t.Seq, addr: t.AddrRecv, data: t.DataRecv})
		}
		tr.cellAt[t.AddrRecv+1]++
	}
	for cell := 1; cell <= parwan.MemSize; cell++ {
		tr.cellAt[cell] += tr.cellAt[cell-1]
	}
	tr.access = make([]cellAccess, len(trace))
	fill := append([]int32(nil), tr.cellAt[:parwan.MemSize]...)
	for _, t := range trace {
		a := cellAccess{tx: int32(t.Seq), val: t.Data, store: t.Write}
		if t.Write {
			a.val = t.DataRecv
		}
		tr.access[fill[t.AddrRecv]] = a
		fill[t.AddrRecv]++
	}
	tr.image = prog.Image.Bytes()
	tr.golden = res
	tr.steps = steps2
	return res, steps2, nil
}

// unload reads a session's response cells in ResponseCells order.
func unload(sys *soc.System, prog *core.TestProgram) []uint8 {
	out := make([]uint8, len(prog.ResponseCells))
	for i, cell := range prog.ResponseCells {
		out[i] = sys.Peek(cell)
	}
	return out
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
	return RunResult{
		Responses: unload(sys, prog),
		Halted:    sys.CPU.Halted(),
		ExecErr:   execErr,
		Steps:     steps,
		Cycles:    sys.CPU.Cycles,
		Events:    sys.ErrorCount(),
		Executed:  steps,
	}, nil
}

// cellSet is a set of memory cells that empties in O(1): cell c is a member
// iff mark[c] == gen.
type cellSet struct {
	mark  []uint32
	gen   uint32
	cells []uint16 // the members, in insertion order
}

func newCellSet() cellSet { return cellSet{mark: make([]uint32, parwan.MemSize), gen: 1} }

func (s *cellSet) reset() {
	s.gen++
	if s.gen == 0 { // wrapped: forget every stale mark
		clear(s.mark)
		s.gen = 1
	}
	s.cells = s.cells[:0]
}

// add inserts cell and reports whether it was new.
func (s *cellSet) add(cell uint16) bool {
	if s.mark[cell] == s.gen {
		return false
	}
	s.mark[cell] = s.gen
	s.cells = append(s.cells, cell)
	return true
}

func (s *cellSet) has(cell uint16) bool { return s.mark[cell] == s.gen }

// execUnit is a reusable execution rig: one System plus its nominal
// channels and the scratch state of a resumed run. Units are pooled per
// core and confined to one goroutine while in use. The nominal channels
// need no memo: no wire of a nominal channel is at risk, so every transmit
// through one is O(1).
type execUnit struct {
	sys    *soc.System
	addrCh *crosstalk.Channel // nominal address channel
	dataCh *crosstalk.Channel // nominal data channel

	delta  []uint16 // see differential.delta
	stored cellSet  // cells the run stored since the anchor
	cand   cellSet  // scratch: cells a rejoin compares, or the delta
	loop   cellSet  // cells stored since the loop check's saved state
	old    []uint8  // each loop member's contents at the saved state

	env  crosstalk.Envelope // of the running group's members but the first
	open []soc.Transfer     // scratch: the transfers env cannot prove clean
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
	return &execUnit{sys: sys, addrCh: addrCh, dataCh: dataCh,
		stored: newCellSet(), cand: newCellSet(), loop: newCellSet(),
		old: make([]uint8, parwan.MemSize)}, nil
}

// putUnit returns a rig to the pool, restoring the nominal channels so the
// defective channel of the last run can be collected.
func (c *parwanCore) putUnit(u *execUnit) {
	_ = u.sys.SetChannels(u.addrCh, u.dataCh, nil)
	u.sys.LogStores(false)
	u.sys.LogTransfers(false, false)
	c.pool.Put(u)
}

// Resume derives the fire-point lookup by transmitting the golden steps
// through defCh from divergeTx on.
func (c *parwanCore) Resume(s int, ch core.BusID, defCh *crosstalk.Channel, divergeTx int) (RunResult, error) {
	if ch != core.AddrBus && ch != core.DataBus {
		return RunResult{}, fmt.Errorf("target: parwan has no channel %d", ch)
	}
	return resumeAlone(c, s, ch, defCh, scanFiring(c.traces[s].steps[ch], defCh, divergeTx))
}

// ResumeGroup runs one session differentially for a group of defects on a
// pooled rig: one execution, with the first member's channel on the
// defective bus, follows the golden run wherever it provably replays it and
// executes instructions only around the transactions on which some member
// fires:
//
//   - It starts at the golden snapshot of the instruction holding the shared
//     first divergence. Every transaction before it latched golden values,
//     so the golden state there is every member's state.
//   - After each instruction k it tests for a rejoin: the machine state
//     (registers and held bus words) equals golden snapshot k. Memory may
//     still differ, but only in the delta: cells of the previous delta,
//     cells this run stored, or cells the golden run stored since. The
//     cycle count may differ too; the difference is carried.
//   - From a rejoin at golden transaction T the run replays golden until a
//     member next fires or the golden run reads a delta cell it has not
//     overwritten first. It jumps to the snapshot of the instruction
//     holding that transaction, applying the golden stores in between.
//     With no such transaction it ends as the golden run does.
//   - A run that hangs is checked for a repeat of its full state (machine
//     and memory) with Brent's algorithm; on a repeat it skips the whole
//     periods left before the step limit.
//   - After each instruction it stepped, every other member's channel
//     judges the instruction's transfers over the defective bus. Members
//     that latch a different word or count different events on one of them
//     leave the group at the instruction's start, with everything the run
//     carries there, and run on as a group of their own (see fork). The
//     envelope of those members (crosstalk.Envelope, built when the group
//     starts) settles most transfers for all of them at once; only the
//     transfers it cannot prove clean are transmitted member by member
//     (see verify).
//
// Members that stay latch exactly what the first member latches, so they
// share its state and event count, and the whole run is each member's run.
func (c *parwanCore) ResumeGroup(s int, ch core.BusID, chs []*crosstalk.Channel, lookup func(members []int) func(t int) int) ([]RunResult, int, error) {
	if ch != core.AddrBus && ch != core.DataBus {
		return nil, 0, fmt.Errorf("target: parwan has no channel %d", ch)
	}
	u, err := c.getUnit()
	if err != nil {
		return nil, 0, err
	}
	defer c.putUnit(u)
	d := differential{u: u, sys: u.sys, tr: &c.traces[s], prog: c.plan.Programs[s], ch: ch,
		chs: chs, lookup: lookup, delta: u.delta[:0]}
	all := make([]int, len(chs))
	for m := range all {
		all[m] = m
	}
	d.pending = []*fork{{members: all}}
	results := make([]RunResult, len(chs))
	for len(d.pending) > 0 {
		f := d.pending[len(d.pending)-1]
		d.pending = d.pending[:len(d.pending)-1]
		if err := d.start(f); err != nil {
			return nil, 0, err
		}
		res := d.run(f.ram != nil)
		for j, m := range d.members {
			if j > 0 {
				res.Responses = slices.Clone(res.Responses)
			}
			results[m] = res
		}
	}
	u.delta = d.delta[:0]
	return results, d.total, nil
}

// runState is what a run carries from one instruction boundary to the next
// besides the rig's memory, registers and cell sets. The anchor is the last
// instruction boundary at which the run was at a golden machine state with
// a known memory delta: the start, a rejoin, or a jump.
type runState struct {
	k  int // instructions retired: the boundary the run is at
	tx int // golden transaction at the anchor
	// dcycles is the run's cycle count minus golden's at the anchor, modulo
	// 2^64.
	dcycles  uint64
	executed int // instructions stepped on this member's way
	skipped  int // events of the hang periods skipped

	// Brent's loop check: the state saved lam steps ago, at a power-of-two
	// distance; the cells stored since are in execUnit.loop, their contents
	// at the save in execUnit.old.
	saved       machine
	savedCycles uint64
	savedEvents int
	power, lam  int
	looped      bool // the periods are skipped; only the remainder is left
}

// boundary is the system's state at an instruction start apart from memory.
type boundary struct {
	m      machine
	cycles uint64
	events int
}

// fork is a group waiting to run: members that left their group at the
// start of an instruction, with everything the run carried there. It is
// compact — a copy of memory and the cell lists, not a rig. A fork with no
// memory is a new group, which starts at the session's entry.
type fork struct {
	members []int // indexes into the call's channels
	ram     []byte
	at      boundary
	runState
	delta  []uint16
	stored []uint16 // execUnit.stored's members
	loop   []uint16 // execUnit.loop's members
	old    []uint8  // old[i]: loop[i]'s contents at the loop check's save
}

// differential is the state of one ResumeGroup call: the rig, the group
// running on it, and the forks still to run.
type differential struct {
	u    *execUnit
	sys  *soc.System
	tr   *parwanTrace
	prog *core.TestProgram
	ch   core.BusID

	chs     []*crosstalk.Channel
	lookup  func(members []int) func(t int) int
	members []int           // the running group; members[0]'s channel is on the bus
	next    func(t int) int // the running group's fire-point lookup
	pending []*fork
	total   int // instructions stepped by every group of the call

	runState
	// delta lists the cells whose contents differed from golden memory at
	// the anchor.
	delta []uint16
}

// start sets the rig up for group f: its first member's channel on the
// defective bus, the transfer log on and the other members' envelope built
// while another member needs verdicts, and the session's entry for a new
// group, or f's state for a fork. The envelope is built once per group: a
// split keeps a subset of the members, which it still bounds.
func (d *differential) start(f *fork) error {
	d.members, d.next = f.members, d.lookup(f.members)
	defCh, u := d.chs[f.members[0]], d.u
	u.env.Reset()
	for _, m := range f.members[1:] {
		u.env.Add(d.chs[m])
	}
	addrCh, dataCh := u.addrCh, u.dataCh
	if d.ch == core.AddrBus {
		addrCh = defCh
	} else {
		dataCh = defCh
	}
	if err := d.sys.SetChannels(addrCh, dataCh, nil); err != nil {
		return err
	}
	d.sys.Reset()
	d.sys.LogStores(true)
	d.logTransfers()
	if f.ram == nil {
		d.sys.LoadBytes(d.tr.image)
		d.runState = runState{}
		d.delta = d.delta[:0]
		d.restore(0)
		return nil
	}
	d.sys.LoadBytes(f.ram)
	d.runState = f.runState
	d.setMachine(f.at.m, f.at.cycles)
	d.sys.SetErrorCount(f.at.events)
	d.delta = append(d.delta[:0], f.delta...)
	u.stored.reset()
	for _, cell := range f.stored {
		u.stored.add(cell)
	}
	u.loop.reset()
	for i, cell := range f.loop {
		u.loop.add(cell)
		u.old[cell] = f.old[i]
	}
	return nil
}

// logTransfers logs the defective bus's transfers while the group has
// members beside the first.
func (d *differential) logTransfers() {
	many := len(d.members) > 1
	d.sys.LogTransfers(many && d.ch == core.AddrBus, many && d.ch == core.DataBus)
}

// run executes the running group to its end. A new group starts at an
// anchor; a fork (stepping) starts inside a stretch of stepped
// instructions, at the instruction it left its group on.
func (d *differential) run(stepping bool) RunResult {
	for {
		if !stepping {
			target := d.next(d.tx)
			for _, cell := range d.delta {
				target = min(target, d.tr.firstRead(cell, d.tx))
			}
			if target >= d.tr.txs() {
				return d.goldenTail()
			}
			if j := searchSnaps(d.tr.snaps, target); j > d.k {
				d.jump(j)
			}
			d.begin()
		}
		stepping = false
		if res, done := d.step(); done {
			return res
		}
	}
}

// setMachine sets the registers and held bus words to m and the cycle count
// to cycles.
func (d *differential) setMachine(m machine, cycles uint64) {
	cpu := d.sys.CPU
	cpu.PC, cpu.AC, cpu.Flags, cpu.Cycles = m.pc, m.ac, m.flags, cycles
	d.sys.SetHeld(m.prevAddr, m.prevData, m.prevCtrl)
}

// restore sets the machine to golden snapshot j, shifted by the carried
// cycle difference, and makes it the anchor.
func (d *differential) restore(j int) {
	snap := &d.tr.snaps[j]
	d.setMachine(snap.machine, snap.cycles+d.dcycles)
	d.k, d.tx = j, snap.tx
}

// jump moves the anchor forward to golden snapshot j over a stretch the run
// would replay: it applies the golden stores in between and drops the delta
// cells they overwrite. (A delta cell's first golden access in the stretch
// is a store: a read would have ended the stretch.)
func (d *differential) jump(j int) {
	to := d.tr.snaps[j].tx
	for _, w := range d.tr.writesBetween(d.tx, to) {
		d.sys.Poke(w.addr, w.data)
	}
	kept := d.delta[:0]
	for _, cell := range d.delta {
		if i, acc := d.tr.firstAccess(cell, d.tx); i == len(acc) || int(acc[i].tx) >= to {
			kept = append(kept, cell)
		}
	}
	d.delta = kept
	d.restore(j)
}

// begin starts a stretch of stepped instructions at the anchor.
func (d *differential) begin() {
	d.u.stored.reset()
	d.save(machineOf(d.sys))
	d.power, d.looped = 1, false
}

// step executes instructions until the run rejoins the golden run (done
// false) or ends (done true, with its result).
func (d *differential) step() (res RunResult, done bool) {
	sys, cpu, snaps := d.sys, d.sys.CPU, d.tr.snaps
	limit := d.prog.StepLimit
	u := d.u
	var at boundary
	for d.k < limit {
		verify := len(d.members) > 1
		if verify {
			at = boundary{m: machineOf(sys), cycles: cpu.Cycles, events: sys.ErrorCount()}
		}
		err := cpu.Step()
		stores := sys.TakeStores()
		if verify {
			d.verify(&at, stores)
		}
		if err != nil {
			return d.result(err), true
		}
		d.k++
		d.executed++
		d.total++
		for _, st := range stores {
			u.stored.add(st.Addr)
			if u.loop.add(st.Addr) {
				u.old[st.Addr] = st.Old
			}
		}
		if cpu.Halted() {
			break
		}
		m := machineOf(sys)
		if d.k < len(snaps) && m == snaps[d.k].machine {
			d.rejoin()
			return RunResult{}, false
		}
		if d.looped {
			continue
		}
		d.lam++
		if m == d.saved && d.memoryRepeats() {
			d.skipPeriods()
		} else if d.lam == d.power {
			d.save(m)
			d.power *= 2
		}
	}
	return d.result(nil), true
}

// verify takes every other member's verdict on the instruction just
// stepped, which started at boundary at and made stores: what the member's
// own channel latches, and how many events it counts, on each of the
// instruction's transfers over the defective bus. Members whose channel
// latches a different word or counts different events on some transfer
// leave the group as one fork.
//
// A transfer the members' envelope proves clean is settled for all of them
// at once: each latches the driven word with no event, so each agrees iff
// the first member's transfer had no event either. Only the transfers left
// open are transmitted per member.
func (d *differential) verify(at *boundary, stores []soc.Store) {
	u := d.u
	open, evented := u.open[:0], false
	for _, x := range d.sys.TakeTransfers() {
		switch {
		case u.env.MayErr(x.Held, x.Driven, x.Dir):
			open = append(open, x)
		case x.Events != 0:
			evented = true
		}
	}
	u.open = open
	if len(open) == 0 && !evented {
		return
	}
	kept, left := d.members[:1], []int(nil)
	for _, m := range d.members[1:] {
		same := !evented
		for k := 0; same && k < len(open); k++ {
			x := &open[k]
			recv, events := d.chs[m].Transmit(x.Held, x.Driven, x.Dir)
			same = recv == x.Received && len(events) == x.Events
		}
		if same {
			kept = append(kept, m)
		} else {
			left = append(left, m)
		}
	}
	if left == nil {
		return
	}
	d.pending = append(d.pending, d.fork(left, at, stores))
	d.members, d.next = kept, d.lookup(kept)
	d.logTransfers()
}

// fork freezes members at the start of the instruction just stepped, which
// started at boundary at: memory with the instruction's stores undone,
// newest first, and the run state, delta and cell sets as they were there
// (the instruction's stores are not in the sets yet).
func (d *differential) fork(members []int, at *boundary, stores []soc.Store) *fork {
	u := d.u
	f := &fork{members: members, ram: d.sys.RAM.Snapshot(), at: *at, runState: d.runState,
		delta: slices.Clone(d.delta), stored: slices.Clone(u.stored.cells), loop: slices.Clone(u.loop.cells)}
	for i := len(stores) - 1; i >= 0; i-- {
		f.ram[stores[i].Addr] = stores[i].Old
	}
	f.old = make([]uint8, len(f.loop))
	for i, cell := range f.loop {
		f.old[i] = u.old[cell]
	}
	return f
}

// rejoin makes boundary k, where the machine state equals golden snapshot
// k, the new anchor. Only the previous delta, the cells this run stored
// since the anchor and the cells the golden run stored in between can
// differ from golden memory, so only those are compared.
func (d *differential) rejoin() {
	snap := &d.tr.snaps[d.k]
	cand := &d.u.cand
	cand.reset()
	for _, cell := range d.delta {
		cand.add(cell)
	}
	for _, cell := range d.u.stored.cells {
		cand.add(cell)
	}
	for _, w := range d.tr.writesBetween(d.tx, snap.tx) {
		cand.add(w.addr)
	}
	d.delta = d.delta[:0]
	for _, cell := range cand.cells {
		if d.sys.Peek(cell) != d.tr.goldenAt(cell, snap.tx) {
			d.delta = append(d.delta, cell)
		}
	}
	d.dcycles = d.sys.CPU.Cycles - snap.cycles
	d.tx = snap.tx
}

// goldenTail ends a run that replays golden from the anchor to the end: the
// golden result shifted by the carried cycle difference, with the delta
// cells the golden run never accesses again left at this run's contents.
// (A delta cell's first golden access after the anchor is a store: a read
// would have been a jump target.)
func (d *differential) goldenTail() RunResult {
	res := d.tr.golden
	res.Responses = append([]uint8(nil), res.Responses...)
	res.Cycles += d.dcycles
	res.Events = d.sys.ErrorCount() + d.skipped
	res.Executed = d.executed
	if len(d.delta) == 0 {
		return res
	}
	kept := &d.u.cand
	kept.reset()
	for _, cell := range d.delta {
		if i, acc := d.tr.firstAccess(cell, d.tx); i == len(acc) {
			kept.add(cell)
		}
	}
	for i, cell := range d.prog.ResponseCells {
		if kept.has(cell) {
			res.Responses[i] = d.sys.Peek(cell)
		}
	}
	return res
}

// result is the outcome of a run that stepped to its end.
func (d *differential) result(err error) RunResult {
	return RunResult{
		Responses: unload(d.sys, d.prog),
		Halted:    d.sys.CPU.Halted(),
		ExecErr:   err,
		Steps:     d.k,
		Cycles:    d.sys.CPU.Cycles,
		Events:    d.sys.ErrorCount() + d.skipped,
		Executed:  d.executed,
	}
}

// save starts a new loop-check period at the current state.
func (d *differential) save(m machine) {
	d.saved, d.savedCycles, d.savedEvents = m, d.sys.CPU.Cycles, d.sys.ErrorCount()
	d.lam = 0
	d.u.loop.reset()
}

// memoryRepeats reports whether memory equals its contents at the saved
// state: only cells stored since can differ.
func (d *differential) memoryRepeats() bool {
	for _, cell := range d.u.loop.cells {
		if d.sys.Peek(cell) != d.u.old[cell] {
			return false
		}
	}
	return true
}

// skipPeriods fast-forwards a run whose full state repeats with period lam:
// it skips the whole periods left before the step limit, adding their
// cycles and events, and leaves the remainder to be stepped.
func (d *differential) skipPeriods() {
	n := (d.prog.StepLimit - d.k) / d.lam
	cpu := d.sys.CPU
	d.k += n * d.lam
	d.skipped += n * (d.sys.ErrorCount() - d.savedEvents)
	cpu.Cycles += uint64(n) * (cpu.Cycles - d.savedCycles)
	d.looped = true
}

// searchSnaps finds the last snapshot whose next-transaction index is at or
// before tx (binary search over the ascending snaps).
func searchSnaps(snaps []cpuSnap, tx int) int {
	return sort.Search(len(snaps), func(i int) bool { return snaps[i].tx > tx }) - 1
}
