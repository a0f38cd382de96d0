package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/maf"
	"repro/internal/parwan"
)

// The program layout every generated plan uses, and the default session
// bound (GenConfig.MaxSessions).
const (
	DefaultEntry       = 0x050 // program entry point, clear of low-address fragments
	DefaultConstBase   = 0xD00 // constant pool page
	DefaultRespBase    = 0xC00 // response cell region
	DefaultMaxSessions = 4
)

// GenConfig controls self-test program generation.
type GenConfig struct {
	// Compaction sums responses in the accumulator using add instructions
	// (§4.3) instead of storing one response per test.
	Compaction bool
	// MaxSessions bounds how many follow-up programs are generated for
	// tests deferred by address conflicts; zero selects the default, and
	// Generate refuses a negative bound.
	MaxSessions int
	// SkipDataBus / SkipAddrBus exclude one bus's tests entirely.
	SkipDataBus bool
	SkipAddrBus bool
	// Filter, when non-nil, restricts generation to faults it accepts —
	// e.g. a single victim wire for per-test coverage measurement.
	Filter func(maf.Fault) bool
}

func (cfg *GenConfig) defaults() error {
	if cfg.MaxSessions < 0 {
		return fmt.Errorf("core: negative MaxSessions %d", cfg.MaxSessions)
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	return nil
}

// Generate builds the complete self-test plan for the Parwan CPU-memory
// system: the 64 MA tests of the 8-bit bidirectional data bus and the 48 MA
// tests of the 12-bit address bus (§5). Tests that hit address conflicts in
// one program are deferred into follow-up sessions; tests that cannot be
// placed within MaxSessions are reported as inapplicable.
func Generate(cfg GenConfig) (*Plan, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}

	var pendingData, pendingAddr []maf.Fault
	if !cfg.SkipDataBus {
		pendingData = filterFaults(maf.Universe(parwan.DataBits, true), cfg.Filter)
	}
	if !cfg.SkipAddrBus {
		pendingAddr = filterFaults(maf.Universe(parwan.AddrBits, false), cfg.Filter)
	}

	plan := &Plan{Compaction: cfg.Compaction}
	reasons := make(map[maf.Fault]error)
	for session := 0; session < cfg.MaxSessions; session++ {
		if session > 0 && len(pendingData)+len(pendingAddr) == 0 {
			break
		}
		prog, deferData, deferAddr, err := generateSession(session, pendingData, pendingAddr, cfg, reasons)
		if err != nil {
			return nil, err
		}
		if len(prog.Applied) == 0 {
			break // no progress; remaining tests are structurally stuck
		}
		plan.Programs = append(plan.Programs, prog)
		pendingData, pendingAddr = deferData, deferAddr
	}
	for _, f := range pendingData {
		plan.Inapplicable = append(plan.Inapplicable, Rejected{
			MA: maf.TestFor(f), Bus: DataBus, Reason: reasons[f].Error(),
		})
	}
	for _, f := range pendingAddr {
		plan.Inapplicable = append(plan.Inapplicable, Rejected{
			MA: maf.TestFor(f), Bus: AddrBus, Reason: reasons[f].Error(),
		})
	}
	return plan, nil
}

// dataPlacement is a data-bus test with its allocated cells.
type dataPlacement struct {
	fault     maf.Fault
	cell      uint16 // forward: seeded operand cell
	constAddr uint16 // reverse: constant holding v2
	target    uint16 // reverse: reserved store target (also the response)
}

func generateSession(session int, pendingData, pendingAddr []maf.Fault, cfg GenConfig, reasons map[maf.Fault]error) (*TestProgram, []maf.Fault, []maf.Fault, error) {
	l := newLayout()

	// Protect a runway at the entry point so fragment placement cannot
	// occupy it; released before mainline emission.
	if err := l.hold(DefaultEntry, 4); err != nil {
		return nil, nil, nil, fmt.Errorf("core: entry %03x unusable: %w", DefaultEntry, err)
	}

	// Phase 1: place address-bus fragments at their fixed footprints. The
	// packing achieved depends on placement order, so a small portfolio of
	// kind orderings is tried and the densest kept (deterministically).
	frags, deferAddr, l := placeAddrFragments(l, pendingAddr, cfg, reasons)

	// Phase 2: place data-bus cells.
	var dataFwd, dataRev []dataPlacement
	var deferData []maf.Fault
	scratch := make(map[byte]uint16)
	fwdCells := make(map[uint16]bool)
	for _, f := range pendingData {
		m := l.mark()
		var err error
		if f.Dir == maf.Forward {
			var cell uint16
			cell, err = placeDataForwardCell(l, f, defaultDataPages)
			if err == nil {
				dataFwd = append(dataFwd, dataPlacement{fault: f, cell: cell})
				fwdCells[cell] = true
			}
		} else {
			var ca, tg uint16
			ca, tg, err = placeDataReverse(l, f, defaultDataPages, DefaultConstBase, scratch, fwdCells)
			if err == nil {
				dataRev = append(dataRev, dataPlacement{fault: f, constAddr: ca, target: tg})
			}
		}
		if err != nil {
			l.undo(m)
			deferData = append(deferData, f)
			reasons[f] = err
			// A failed reverse placement may have registered a scratch
			// cell that the rollback un-reserved; rebuild-safe by
			// dropping any scratch entries that no longer point at a
			// reserved or forward cell.
			for off, a := range scratch {
				if !l.reserved[a] && !fwdCells[a] {
					delete(scratch, off)
				}
			}
		}
	}

	// Phase 3: emit the mainline program.
	for i := uint16(0); i < 4; i++ {
		l.release(DefaultEntry + i)
	}
	prog := &TestProgram{Session: session, Entry: DefaultEntry}
	e := newEmitter(l, DefaultEntry)
	respCursor := uint16(DefaultRespBase)
	allocResp := func() (uint16, error) {
		a, err := l.findFreeRun(respCursor, 1)
		if err != nil {
			return 0, err
		}
		if err := l.reserve(a); err != nil {
			return 0, err
		}
		respCursor = a + 1
		return a, nil
	}
	order := 0
	record := func(f maf.Fault, bus BusID, scheme Scheme, resp ...uint16) {
		prog.Applied = append(prog.Applied, AppliedTest{
			MA: maf.TestFor(f), Bus: bus, Scheme: scheme,
			ResponseCells: resp, Order: order,
		})
		order++
	}

	if cfg.Compaction {
		// §4.3: per fault kind, clear the accumulator, add every victim's
		// operand cell, store the collective signature.
		for _, kind := range maf.Kinds {
			var group []dataPlacement
			for _, dp := range dataFwd {
				if dp.fault.Kind == kind {
					group = append(group, dp)
				}
			}
			if len(group) == 0 {
				continue
			}
			e.emit(parwan.Instruction{Op: parwan.CLA})
			for _, dp := range group {
				e.emit(parwan.Instruction{Op: parwan.ADD, Target: dp.cell})
			}
			resp, err := allocResp()
			if err != nil {
				return nil, nil, nil, err
			}
			e.emit(parwan.Instruction{Op: parwan.STA, Target: resp})
			for _, dp := range group {
				record(dp.fault, DataBus, DataForward, resp)
			}
		}
	} else {
		for _, dp := range dataFwd {
			e.emit(parwan.Instruction{Op: parwan.LDA, Target: dp.cell})
			resp, err := allocResp()
			if err != nil {
				return nil, nil, nil, err
			}
			e.emit(parwan.Instruction{Op: parwan.STA, Target: resp})
			record(dp.fault, DataBus, DataForward, resp)
		}
	}

	// CPU-to-memory data-bus tests: store v2 into the shared scratch at
	// offset v1 (this write carries the vector pair), read it back, and
	// store the retrieved value into the test's own response cell.
	for _, dp := range dataRev {
		e.emit(parwan.Instruction{Op: parwan.LDA, Target: dp.constAddr})
		e.emit(parwan.Instruction{Op: parwan.STA, Target: dp.target})
		e.emit(parwan.Instruction{Op: parwan.LDA, Target: dp.target})
		resp, err := allocResp()
		if err != nil {
			return nil, nil, nil, err
		}
		e.emit(parwan.Instruction{Op: parwan.STA, Target: resp})
		record(dp.fault, DataBus, DataReverse, resp)
	}

	// Address-bus tests: jump into each fragment; its continuation jumps
	// back to the rejoin point where the response is collected.
	if cfg.Compaction && len(frags) > 0 {
		e.emit(parwan.Instruction{Op: parwan.CLA})
	}
	var sharedAddrResp uint16
	var haveShared bool
	for _, fr := range frags {
		e.emit(parwan.Instruction{Op: parwan.JMP, Target: fr.entry})
		rejoin := e.here(4)
		if e.err != nil {
			return nil, nil, nil, e.err
		}
		jb, err := parwan.Instruction{Op: parwan.JMP, Target: rejoin}.Encode()
		if err != nil {
			return nil, nil, nil, err
		}
		if err := l.fill(fr.cont, jb[0]); err != nil {
			return nil, nil, nil, err
		}
		if err := l.fill(fr.cont+1, jb[1]); err != nil {
			return nil, nil, nil, err
		}
		if cfg.Compaction {
			if !haveShared {
				r, err := allocResp()
				if err != nil {
					return nil, nil, nil, err
				}
				sharedAddrResp, haveShared = r, true
			}
			record(fr.fault, AddrBus, fr.scheme, sharedAddrResp)
		} else {
			resp, err := allocResp()
			if err != nil {
				return nil, nil, nil, err
			}
			e.emit(parwan.Instruction{Op: parwan.STA, Target: resp})
			record(fr.fault, AddrBus, fr.scheme, resp)
		}
	}
	if cfg.Compaction && haveShared {
		e.emit(parwan.Instruction{Op: parwan.STA, Target: sharedAddrResp})
	}
	e.halt()
	if e.err != nil {
		return nil, nil, nil, e.err
	}

	prog.Image = l.im
	prog.ResponseCells = collectResponseCells(prog.Applied)
	// Generous bound: mainline plus fragment instructions, with headroom
	// for bridge jumps, so corrupted control flow is caught as a hang.
	prog.StepLimit = 40*(len(prog.Applied)+len(frags)) + 400
	return prog, deferData, deferAddr, nil
}

// placementOrders is the portfolio of placement priorities tried by
// placeAddrFragments (lower priority value places first). Rigid schemes
// (delay tests' direct placement, whose bytes are fully determined)
// generally pack best when placed before the flexible, searchable glitch
// schemes; and because a victim's rising-delay and negative-glitch tests
// are compatible with each other but not with its falling-delay and
// positive-glitch tests (they compete for the bytes at the one-hot and
// complement-one-hot corner addresses), the paired-split orders alternate
// the winning pair across victims. No single order is uniformly best; the
// portfolio keeps generation near the achievable maximum without a
// combinatorial search.
var placementOrders = []func(maf.Fault) int{
	kindOrder(maf.RisingDelay, maf.FallingDelay, maf.NegativeGlitch, maf.PositiveGlitch),
	kindOrder(maf.FallingDelay, maf.RisingDelay, maf.PositiveGlitch, maf.NegativeGlitch),
	kindOrder(maf.NegativeGlitch, maf.PositiveGlitch, maf.FallingDelay, maf.RisingDelay),
	kindOrder(maf.PositiveGlitch, maf.NegativeGlitch, maf.RisingDelay, maf.FallingDelay),
	pairedSplit(0),
	pairedSplit(1),
}

// kindOrder builds a priority function placing kinds in the given order.
func kindOrder(kinds ...maf.Kind) func(maf.Fault) int {
	var prio [len(maf.Kinds)]int
	for i, k := range kinds {
		prio[k] = i
	}
	return func(f maf.Fault) int { return prio[f.Kind] }
}

// pairedSplit assigns victims with parity matching phase the (rising-delay,
// negative-glitch) pair and the others the (falling-delay, positive-glitch)
// pair, placing the chosen pairs rigid-first and the losing pairs last as
// opportunistic fills.
func pairedSplit(phase int) func(maf.Fault) int {
	return func(f maf.Fault) int {
		chosen := f.Victim%2 == phase
		switch f.Kind {
		case maf.RisingDelay:
			if chosen {
				return 0
			}
			return 5
		case maf.FallingDelay:
			if !chosen {
				return 1
			}
			return 4
		case maf.NegativeGlitch:
			if chosen {
				return 2
			}
			return 7
		case maf.PositiveGlitch:
			if !chosen {
				return 3
			}
			return 6
		}
		return 8
	}
}

// placeAddrFragments anchors the corner cells, then tries each portfolio
// ordering on a copy of the layout and keeps the densest packing. It
// returns the fragments, the deferred faults, and the winning layout.
func placeAddrFragments(base *layout, pending []maf.Fault, cfg GenConfig, reasons map[maf.Fault]error) ([]fragment, []maf.Fault, *layout) {
	// Anchor the corner cells before any placement: every negative-glitch
	// test's alternate instruction byte lands at 0x000 and every
	// positive-glitch test's at 0xFFF (their corrupted fetch addresses), so
	// when several such tests are pending, the corner must hold a shared
	// load opcode rather than be consumed by one test's exclusive footprint.
	// A failed pin changes nothing, so each anchor is best-effort.
	_, opHigh := opForMode(cfg.Compaction)
	anchored := base.snapshot()
	if countKind(pending, maf.NegativeGlitch) >= 2 {
		_ = anchored.pin(0x000, opHigh|0x0F)
	}
	if countKind(pending, maf.PositiveGlitch) >= 2 {
		_ = anchored.pin(0xFFF, opHigh|0x0E)
	}

	var bestFrags []fragment
	var bestDefer []maf.Fault
	var bestLayout *layout
	bestReasons := make(map[maf.Fault]error)
	for _, start := range []*layout{anchored, base} {
		for _, prio := range placementOrders {
			localReasons := make(map[maf.Fault]error)
			frags, deferred, l := placeAddrFragmentsWithOrder(start.snapshot(), pending, cfg, localReasons, prio)
			if bestLayout == nil || len(frags) > len(bestFrags) {
				bestFrags, bestDefer, bestLayout, bestReasons = frags, deferred, l, localReasons
			}
		}
	}
	for f, r := range bestReasons {
		reasons[f] = r
	}
	return bestFrags, bestDefer, bestLayout
}

// errSeedsIrreconcilable is the reason for a fragment that resolveSeeds drops.
var errSeedsIrreconcilable = errors.New("core: seed cells irreconcilable after placement")

// placeAddrFragmentsWithOrder places pending fragments on l in the order
// given by the priority function.
func placeAddrFragmentsWithOrder(l *layout, pending []maf.Fault, cfg GenConfig, reasons map[maf.Fault]error, prio func(maf.Fault) int) ([]fragment, []maf.Fault, *layout) {
	ordered := slices.Clone(pending)
	slices.SortStableFunc(ordered, func(a, b maf.Fault) int { return cmp.Compare(prio(a), prio(b)) })

	var frags []fragment
	var deferred []maf.Fault
	for _, f := range ordered {
		m := l.mark()
		var frag fragment
		var err error
		if f.Kind.IsDelay() {
			// Delay faults prefer the direct placement of §4.2.1 and fall
			// back to the two-instruction scheme on conflict.
			frag, err = placeAddrDirect(l, f, cfg.Compaction)
			if err != nil {
				l.undo(m)
				frag, err = placeAddrTwoInstr(l, f, cfg.Compaction)
			}
		} else {
			frag, err = placeAddrTwoInstr(l, f, cfg.Compaction)
		}
		if err != nil {
			l.undo(m)
			deferred = append(deferred, f)
			reasons[f] = err
			continue
		}
		frags = append(frags, frag)
	}
	// Resolve the deferred seed constraints; unsatisfiable fragments are
	// dropped and their faults deferred.
	kept, droppedFrags := resolveSeeds(l, frags)
	for _, fr := range droppedFrags {
		deferred = append(deferred, fr.fault)
		reasons[fr.fault] = errSeedsIrreconcilable
	}
	return kept, deferred, l
}

func filterFaults(faults []maf.Fault, keep func(maf.Fault) bool) []maf.Fault {
	if keep == nil {
		return faults
	}
	var out []maf.Fault
	for _, f := range faults {
		if keep(f) {
			out = append(out, f)
		}
	}
	return out
}

func countKind(faults []maf.Fault, k maf.Kind) int {
	n := 0
	for _, f := range faults {
		if f.Kind == k {
			n++
		}
	}
	return n
}

func collectResponseCells(applied []AppliedTest) []uint16 {
	seen := make(map[uint16]bool)
	var cells []uint16
	for _, a := range applied {
		for _, c := range a.ResponseCells {
			if !seen[c] {
				seen[c] = true
				cells = append(cells, c)
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	return cells
}
