// Package target is the pluggable backend layer under the simulation stack:
// it abstracts the system under test — which channels exist (Topology), how
// each channel behaves electrically (BusModel), how a self-test plan is
// generated for it, and how that plan executes (Core) — so the MA-test
// method, which is target-agnostic (4N faults for any N-wire channel),
// applies beyond the paper's Parwan CPU.
//
// Two backends ship: Parwan, the paper's 12-bit-address/8-bit-data CPU-memory
// system (byte-identical to the pre-refactor stack by construction), and
// WideBus, a synthetic unidirectional bus of configurable width driven by a
// scripted initiator, proving the interfaces hold for non-CPU targets.
package target

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/logic"
	"repro/internal/maf"
)

// Role classifies what a channel carries, for reporting and documentation;
// the simulation layers only use channel IDs and widths.
type Role string

// The channel roles of the shipped backends.
const (
	RoleData    Role = "data"
	RoleAddress Role = "address"
	RoleBus     Role = "bus"
)

// ChannelDesc describes one named interconnect channel of a target.
type ChannelDesc struct {
	// Name is the channel's stable identifier — what campaign specs and the
	// -bus flag select, and what reports print.
	Name string
	// Width is the number of wires.
	Width int
	// Bidirectional channels are tested in both transfer directions (8N MA
	// tests); unidirectional ones only forward (4N).
	Bidirectional bool
	// Role classifies the traffic the channel carries.
	Role Role
}

// Topology is a target's set of testable channels. The slice index is the
// channel ID — the core.BusID the whole stack keys traces, outcomes, and
// plans by.
type Topology struct {
	Channels []ChannelDesc
}

// Channel resolves a channel name to its ID.
func (t Topology) Channel(name string) (core.BusID, bool) {
	for i, ch := range t.Channels {
		if ch.Name == name {
			return core.BusID(i), true
		}
	}
	return 0, false
}

// Names lists the channel names in ID order.
func (t Topology) Names() []string {
	out := make([]string, len(t.Channels))
	for i, ch := range t.Channels {
		out[i] = ch.Name
	}
	return out
}

// BusModel bundles one channel's electrical description: a (possibly
// perturbed) crosstalk parameter set and the fixed detectability thresholds
// derived from the nominal geometry.
type BusModel struct {
	Nominal    *crosstalk.Params
	Thresholds crosstalk.Thresholds
}

// GenSpec configures plan generation on a target.
type GenSpec struct {
	// Compaction sums responses instead of storing one per test, where the
	// backend supports it (§4.3 for Parwan; scripted targets ignore it).
	Compaction bool
	// MaxSessions bounds follow-up sessions; zero selects the backend
	// default. Scripted targets reinterpret it structurally: a value > 1
	// splits the script across up to that many self-contained sessions, the
	// granularity in-field slicing partitions at.
	MaxSessions int
	// OnlyChannel restricts generation to one channel's tests by name; empty
	// generates tests for every channel.
	OnlyChannel string
	// Filter, when non-nil, restricts generation to the faults it accepts.
	Filter func(maf.Fault) bool
}

// BusStep is one transaction's transition on a single channel: the word the
// channel held before, the word driven, and the drive direction. Sequences
// of BusSteps are what the screening sweep pushes through defective channels.
type BusStep struct {
	Prev, Next logic.Word
	Dir        maf.Direction
}

// RunResult is one session program execution's observable outcome.
type RunResult struct {
	// Responses holds the response cells' contents after the run, in the
	// session's ResponseCells order.
	Responses []uint8
	Halted    bool  // reached the clean end of the program
	ExecErr   error // illegal opcode (possible under corruption)
	Steps     int
	Cycles    uint64
	// Events counts crosstalk error events on any channel during the run —
	// how many times a defect was activated.
	Events int
	// Executed counts the instructions (script steps, on a scripted target)
	// this call actually executed. A resumed run executes fewer than Steps:
	// it starts from a snapshot, jumps over stretches that replay the golden
	// run, and skips whole periods of a repeating hang.
	Executed int
}

// Core abstracts the execution machinery of one plan on one target: the
// golden (defect-free) reference runs with trace capture, full defective
// re-execution, and differential execution that follows the golden run
// between the transactions on which a defect fires. A Core is built per
// plan, is read-only after its golden runs, and must be safe for concurrent
// Run/ResumeGroup/Resume calls.
type Core interface {
	// Golden executes session s on the nominal channels with tracing,
	// returning the result and the per-channel transition sequences (indexed
	// by channel ID). It records whatever internal state resumed runs later
	// need. Called once per session, in order, before any defective run.
	Golden(s int) (RunResult, [][]BusStep, error)
	// Run executes session s in full with channel ch's parameters replaced
	// by the defective set and every other channel nominal — the paper's
	// Fig. 9 reference flow.
	Run(s int, ch core.BusID, defective *crosstalk.Params) (RunResult, error)
	// ResumeGroup re-executes session s once for a group of defective
	// channels chs (at least one) of channel ch that share their first
	// diverging golden transaction. lookup(members) returns the fire-point
	// lookup of the members it names (indexes into chs): next(t) is the
	// first golden transaction at or after t of session s on which any
	// member fires (reports an error event), or the trace length when there
	// is none; next(0) is the shared first divergence. A lookup may answer
	// early — with a transaction on which no member fires — but never late.
	// ResumeGroup returns the members' results in chs order, each exactly
	// the RunResult Run returns for that member given the golden traffic is
	// event-free, apart from Executed, and the instructions (script steps,
	// on a scripted target) it executed in total.
	ResumeGroup(s int, ch core.BusID, chs []*crosstalk.Channel, lookup func(members []int) func(t int) int) ([]RunResult, int, error)
	// Resume is ResumeGroup for a group of one, defCh, with the lookup
	// derived by transmitting the session's golden steps through defCh from
	// divergeTx on. The caller guarantees every transaction before divergeTx
	// transfers cleanly through defCh. It serves callers that know only the
	// first divergence.
	Resume(s int, ch core.BusID, defCh *crosstalk.Channel, divergeTx int) (RunResult, error)
}

// resumeAlone is every core's Resume: ResumeGroup with a group of one, so
// a single run and a group run take one path.
func resumeAlone(c Core, s int, ch core.BusID, defCh *crosstalk.Channel, next func(t int) int) (RunResult, error) {
	res, _, err := c.ResumeGroup(s, ch, []*crosstalk.Channel{defCh}, func([]int) func(int) int { return next })
	if err != nil {
		return RunResult{}, err
	}
	return res[0], nil
}

// scanFiring is the fire-point lookup Resume passes to resumeAlone: it
// transmits golden steps through defCh, starting at divergeTx, and keeps its
// last answer so that queries inside an already scanned stretch cost
// nothing.
func scanFiring(steps []BusStep, defCh *crosstalk.Channel, divergeTx int) func(t int) int {
	// steps[from:fire] transfer cleanly; fire fires or is len(steps).
	from, fire := 0, min(divergeTx, len(steps))
	return func(t int) int {
		if t >= from && t <= fire {
			return fire
		}
		for from, fire = t, t; fire < len(steps); fire++ {
			if st := steps[fire]; !defCh.Clean(st.Prev, st.Next, st.Dir) {
				break
			}
		}
		return fire
	}
}

// Target is one pluggable system under test.
type Target interface {
	// Name is the target descriptor ("parwan", "widebus32", ...) — what a
	// campaign spec's target field and the -target flag select, and what
	// generated plans are stamped with.
	Name() string
	// Topology describes the testable channels.
	Topology() Topology
	// BusModels derives the per-channel nominal electrical models for a
	// detectability-threshold factor (0 selects the default), indexed by
	// channel ID.
	BusModels(cthFactor float64) ([]BusModel, error)
	// Generate builds the MA self-test plan.
	Generate(spec GenSpec) (*core.Plan, error)
	// NewCore builds the execution machinery for one plan over the given
	// per-channel models (as returned by BusModels).
	NewCore(plan *core.Plan, models []BusModel) (Core, error)
}

// Parse resolves a target descriptor: "parwan" (the default; empty selects
// it) or "widebusN" for a synthetic N-wire scripted bus, e.g. "widebus32".
// Only the canonical spelling, the target's Name, is accepted, so caches
// keyed on the descriptor and caches keyed on Name agree.
func Parse(s string) (Target, error) {
	switch {
	case s == "" || s == "parwan":
		return Parwan(), nil
	case strings.HasPrefix(s, "widebus"):
		digits := strings.TrimPrefix(s, "widebus")
		n, err := strconv.Atoi(digits)
		if err != nil || strconv.Itoa(n) != digits {
			return nil, fmt.Errorf("target: bad wide-bus descriptor %q (want e.g. widebus32)", s)
		}
		return WideBus(n)
	default:
		return nil, fmt.Errorf("target: unknown target %q (want parwan or widebusN)", s)
	}
}

// checkModels verifies a BusModels slice matches the target's topology.
func checkModels(t Target, models []BusModel) error {
	topo := t.Topology()
	if len(models) != len(topo.Channels) {
		return fmt.Errorf("target: %s wants %d channel models, got %d",
			t.Name(), len(topo.Channels), len(models))
	}
	for i, m := range models {
		if m.Nominal == nil {
			return fmt.Errorf("target: %s channel %s has no nominal parameters", t.Name(), topo.Channels[i].Name)
		}
		if m.Nominal.Width != topo.Channels[i].Width {
			return fmt.Errorf("target: %s channel %s is %d wires, model has %d",
				t.Name(), topo.Channels[i].Name, topo.Channels[i].Width, m.Nominal.Width)
		}
	}
	return nil
}

// CheckPlan verifies that plan was generated for (or is compatible with)
// the target, and that each applied test names a fault of its own channel:
// at the channel's width, and forward unless the channel is bidirectional.
// Every applied fault is then in the target's FaultUniverse. Both shipped
// cores check their plan with it, and so does every role that reads an
// inline plan.
func CheckPlan(t Target, plan *core.Plan) error {
	if plan.TargetName() != t.Name() {
		return fmt.Errorf("target: plan was generated for %s, not %s", plan.TargetName(), t.Name())
	}
	chans := t.Topology().Channels
	for _, prog := range plan.Programs {
		for _, a := range prog.Applied {
			f := a.MA.Fault
			if int(a.Bus) < 0 || int(a.Bus) >= len(chans) {
				return fmt.Errorf("target: session %d test %v@%d is on channel %d, which %s does not have",
					prog.Session, f, f.Width, a.Bus, t.Name())
			}
			ch := chans[a.Bus]
			if f.Width != ch.Width || f.Victim < 0 || f.Victim >= ch.Width || (f.Dir != maf.Forward && !ch.Bidirectional) {
				return fmt.Errorf("target: session %d test %v@%d is not a fault of %s channel %s",
					prog.Session, f, f.Width, t.Name(), ch.Name)
			}
		}
	}
	return nil
}

// universes interns each target's fault universe by target name.
var universes sync.Map

// FaultUniverse returns the target's fault universe: the MAFs of every
// channel (maf.Universe of its width and direction), in canonical order. It
// is built once per target name and shared, so every plan and runner of a
// target indexes one universe, and detection sets from different runners
// of it merge. It fails for a topology of more than maf.SetBits faults.
func FaultUniverse(t Target) (*maf.FaultUniverse, error) {
	if u, ok := universes.Load(t.Name()); ok {
		return u.(*maf.FaultUniverse), nil
	}
	var faults []maf.Fault
	for _, ch := range t.Topology().Channels {
		faults = append(faults, maf.Universe(ch.Width, ch.Bidirectional)...)
	}
	u, err := maf.NewFaultUniverse(faults)
	if err != nil {
		return nil, fmt.Errorf("target: %s: %w", t.Name(), err)
	}
	v, _ := universes.LoadOrStore(t.Name(), u)
	return v.(*maf.FaultUniverse), nil
}
