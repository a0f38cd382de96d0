// Package core implements the paper's contribution: generation of
// software-based self-test programs that apply maximum-aggressor crosstalk
// tests to the address and data busses of a CPU-memory system by executing
// ordinary load/store/add instructions in the processor's normal functional
// mode (paper §3-§4).
//
// The generator builds, for the 8-bit bidirectional data bus and the 12-bit
// unidirectional address bus of the Parwan system:
//
//   - data-bus tests in the memory-to-CPU direction via the load (or add)
//     instruction's offset-byte -> operand-data transition (§4.1);
//   - data-bus tests in the CPU-to-memory direction via the store
//     instruction's offset-byte -> accumulator-write transition (§3.1);
//   - address-bus delay tests by placing the instruction so its second byte
//     sits at v1 and its operand address is v2 (§4.2.1);
//   - address-bus glitch tests with the two-instruction scheme that uses the
//     operand-access -> next-fetch transition, avoiding the address
//     conflicts single-instruction glitch tests would cause (§4.2.2);
//   - optional response compaction by summing one-hot responses in the
//     accumulator (§4.3).
//
// Tests whose memory footprints conflict (the paper's "address conflicts",
// which cost it 7 of 48 address-bus tests in a single program) are deferred
// into follow-up sessions, each a standalone program (§5).
package core

import (
	"fmt"

	"repro/internal/maf"
	"repro/internal/parwan"
)

// BusID identifies which system bus a test targets.
type BusID int

// The two busses of the CPU-memory system.
const (
	DataBus BusID = iota
	AddrBus
)

// String names the bus.
func (b BusID) String() string {
	switch b {
	case DataBus:
		return "data"
	case AddrBus:
		return "addr"
	default:
		return fmt.Sprintf("BusID(%d)", int(b))
	}
}

// Scheme is the program construction used to apply a test.
type Scheme int

// The four constructions of §4.
const (
	// DataForward applies a data-bus pair memory-to-CPU via a load/add
	// operand fetch (§4.1).
	DataForward Scheme = iota
	// DataReverse applies a data-bus pair CPU-to-memory via a store (§3.1).
	DataReverse
	// AddrDirect applies an address-bus pair via instruction placement at
	// v1-1 with operand address v2 (§4.2.1; the paper uses it for delay
	// faults).
	AddrDirect
	// AddrTwoInstr applies an address-bus pair via the two-instruction
	// scheme using the operand-access -> next-fetch transition (§4.2.2; the
	// paper introduces it for glitch faults, whose shared v1 vector would
	// otherwise cause address conflicts, but it applies to any pair and
	// serves as the fallback when AddrDirect placement conflicts).
	AddrTwoInstr
	// ScriptDirect applies a pair by driving v1 then v2 verbatim from a
	// scripted (non-CPU) initiator — no placement constraints, so every MA
	// test is applicable.
	ScriptDirect
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case DataForward:
		return "data-fwd"
	case DataReverse:
		return "data-rev"
	case AddrDirect:
		return "addr-direct"
	case AddrTwoInstr:
		return "addr-two-instr"
	case ScriptDirect:
		return "script"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// AppliedTest records one MA test successfully embedded in a program.
type AppliedTest struct {
	MA     maf.Test
	Bus    BusID
	Scheme Scheme
	// ResponseCells are the memory addresses whose post-run contents carry
	// this test's response. With compaction several tests share a cell.
	ResponseCells []uint16
	// Order is the test's position in program execution order.
	Order int
}

// String renders the applied test.
func (a AppliedTest) String() string {
	return fmt.Sprintf("%v via %v", a.MA, a.Scheme)
}

// TestProgram is one self-test program (one session). For CPU targets it is
// a memory image plus an entry point; for scripted-initiator targets the
// Image is nil and Script holds the exact word sequence the initiator
// drives. Both forms share the response-cell bookkeeping that decides
// pass/fail.
type TestProgram struct {
	Session int
	Image   *parwan.Image
	Entry   uint16
	// Script, when non-empty, is the word sequence a scripted initiator
	// drives on its channel (one word per step); Image is nil then.
	Script []uint64
	// ScriptWidth is the channel width of the script words.
	ScriptWidth int
	Applied     []AppliedTest
	// ResponseCells is the union of all tests' response cells, sorted in
	// ascending order; comparing these against a golden run decides
	// pass/fail.
	ResponseCells []uint16
	// StepLimit bounds simulation of the program (generously above the
	// golden instruction count so that corrupted control flow is detected
	// as a hang rather than looping forever).
	StepLimit int
}

// ResponseIndex maps each applied test's response cells to their positions
// in ResponseCells, the order a run unloads responses in: out[a][k] is the
// index of Applied[a].ResponseCells[k]. It fails when a test names a cell
// the session never unloads, since no run result would carry that cell.
func (p *TestProgram) ResponseIndex() ([][]int, error) {
	pos := make(map[uint16]int, len(p.ResponseCells))
	for i, c := range p.ResponseCells {
		if _, dup := pos[c]; !dup {
			pos[c] = i
		}
	}
	out := make([][]int, len(p.Applied))
	for a, t := range p.Applied {
		out[a] = make([]int, len(t.ResponseCells))
		for k, c := range t.ResponseCells {
			i, ok := pos[c]
			if !ok {
				return nil, fmt.Errorf("core: session %d test %v names response cell %03x, which the session never unloads",
					p.Session, t.MA.Fault, c)
			}
			out[a][k] = i
		}
	}
	return out, nil
}

// Rejected records an MA test that could not be placed, and why.
type Rejected struct {
	MA     maf.Test
	Bus    BusID
	Reason string
}

// Plan is the complete generation result: one or more session programs plus
// the tests that could not be placed in any session.
type Plan struct {
	Programs     []*TestProgram
	Inapplicable []Rejected
	// Compaction records whether responses were compacted (§4.3).
	Compaction bool
	// Target names the backend the plan was generated for; empty selects the
	// default Parwan system. Serialized, so plan hashes — the identity fleet
	// caches and shard keys derive from — are target-distinct.
	Target string
	// Channels lists the target's channel names indexed by BusID; empty
	// selects the Parwan {data, addr} pair.
	Channels []string
}

// TargetName resolves the plan's backend name; empty means "parwan".
func (p *Plan) TargetName() string {
	if p.Target == "" {
		return "parwan"
	}
	return p.Target
}

// BusName renders a BusID using the plan's channel-name table, falling back
// to the Parwan names for plans without one.
func (p *Plan) BusName(b BusID) string {
	if int(b) >= 0 && int(b) < len(p.Channels) {
		return p.Channels[b]
	}
	return b.String()
}

// TotalApplied returns the number of MA tests applied across all sessions.
func (p *Plan) TotalApplied() int {
	n := 0
	for _, prog := range p.Programs {
		n += len(prog.Applied)
	}
	return n
}

// AppliedOn returns the number of tests applied for one bus across all
// sessions, and in the first session alone (the paper reports the
// single-program number: 64/64 data, 41/48 address).
func (p *Plan) AppliedOn(bus BusID) (total, firstSession int) {
	for _, prog := range p.Programs {
		for _, a := range prog.Applied {
			if a.Bus != bus {
				continue
			}
			total++
			if prog.Session == 0 {
				firstSession++
			}
		}
	}
	return total, firstSession
}

// FindApplied locates the applied record for a fault across all sessions.
func (p *Plan) FindApplied(f maf.Fault) (*TestProgram, *AppliedTest, bool) {
	for _, prog := range p.Programs {
		for i := range prog.Applied {
			if prog.Applied[i].MA.Fault == f {
				return prog, &prog.Applied[i], true
			}
		}
	}
	return nil, nil, false
}
