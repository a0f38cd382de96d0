package target

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/maf"
)

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		name string
	}{
		{"", "parwan"},
		{"parwan", "parwan"},
		{"widebus16", "widebus16"},
		{"widebus64", "widebus64"},
	} {
		tgt, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if tgt.Name() != tc.name {
			t.Errorf("Parse(%q).Name() = %q, want %q", tc.in, tgt.Name(), tc.name)
		}
	}
	for _, bad := range []string{"widebus", "widebus1", "widebus65", "widebusx", "i8051", "widebus032", "widebus+32"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted an invalid descriptor", bad)
		}
	}
}

// FuzzTargetParse holds Parse to canonical descriptors, since every spec's
// target reaches it: whatever it accepts is empty or the target's own Name.
func FuzzTargetParse(f *testing.F) {
	for _, s := range []string{"", "parwan", "widebus2", "widebus64", "widebus032", "widebus+32", "widebus65", "widebus-8"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tgt, err := Parse(s)
		if err != nil {
			return
		}
		if s != "" && tgt.Name() != s {
			t.Fatalf("Parse(%q) accepted a non-canonical spelling of %s", s, tgt.Name())
		}
	})
}

func TestParwanTopology(t *testing.T) {
	topo := Parwan().Topology()
	if len(topo.Channels) != 2 {
		t.Fatalf("parwan has %d channels, want 2", len(topo.Channels))
	}
	// The channel IDs must coincide with core.BusID: the plan format, the
	// report JSON and the byte-identity tests all depend on data=0, addr=1.
	if id, ok := topo.Channel("data"); !ok || id != core.DataBus {
		t.Errorf("data channel id = %v, want %v", id, core.DataBus)
	}
	if id, ok := topo.Channel("addr"); !ok || id != core.AddrBus {
		t.Errorf("addr channel id = %v, want %v", id, core.AddrBus)
	}
	data := topo.Channels[core.DataBus]
	if data.Width != 8 || !data.Bidirectional || data.Role != RoleData {
		t.Errorf("data channel = %+v, want 8-wire bidirectional data", data)
	}
	addr := topo.Channels[core.AddrBus]
	if addr.Width != 12 || addr.Bidirectional || addr.Role != RoleAddress {
		t.Errorf("addr channel = %+v, want 12-wire unidirectional address", addr)
	}
	if _, ok := topo.Channel("bus"); ok {
		t.Error("parwan resolved a channel it does not have")
	}
}

func TestBusModelsMatchTopology(t *testing.T) {
	for _, name := range []string{"parwan", "widebus16", "widebus64"} {
		tgt, err := Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		models, err := tgt.BusModels(0)
		if err != nil {
			t.Fatalf("%s: BusModels: %v", name, err)
		}
		if err := checkModels(tgt, models); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestWideBusGenerate pins the scripted plan's structure: exactly 4N tests
// (the MAF universe of a unidirectional N-wire bus), two script steps per
// test carrying the MA vector pair verbatim, and response cells that tile
// the script at one stride (= ceil(N/8) bytes) per step.
func TestWideBusGenerate(t *testing.T) {
	for _, width := range []int{8, 16, 32, 64} {
		tgt, err := WideBus(width)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := tgt.Generate(GenSpec{})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if plan.TargetName() != tgt.Name() {
			t.Errorf("width %d: plan target %q", width, plan.TargetName())
		}
		if len(plan.Channels) != 1 || plan.Channels[0] != "bus" {
			t.Errorf("width %d: plan channels %v, want [bus]", width, plan.Channels)
		}
		if len(plan.Programs) != 1 {
			t.Fatalf("width %d: %d programs, want 1", width, len(plan.Programs))
		}
		prog := plan.Programs[0]
		if got, want := len(prog.Applied), 4*width; got != want {
			t.Errorf("width %d: %d applied tests, want 4N = %d", width, got, want)
		}
		if got, want := len(prog.Script), 2*len(prog.Applied); got != want {
			t.Errorf("width %d: script has %d steps, want %d", width, got, want)
		}
		if prog.ScriptWidth != width {
			t.Errorf("width %d: script width %d", width, prog.ScriptWidth)
		}
		if prog.Image != nil {
			t.Errorf("width %d: scripted program carries a memory image", width)
		}
		stride := (width + 7) / 8
		if got, want := len(prog.ResponseCells), len(prog.Script)*stride; got != want {
			t.Errorf("width %d: %d response cells, want %d", width, got, want)
		}
		for i, c := range prog.ResponseCells {
			if int(c) != i {
				t.Fatalf("width %d: response cell %d = %d, want ascending identity", width, i, c)
			}
		}
		for i, a := range prog.Applied {
			if v1 := prog.Script[2*i]; v1 != a.MA.V1.Uint64() {
				t.Fatalf("width %d test %d: script V1 %#x != MA V1 %#x", width, i, v1, a.MA.V1.Uint64())
			}
			if v2 := prog.Script[2*i+1]; v2 != a.MA.V2.Uint64() {
				t.Fatalf("width %d test %d: script V2 %#x != MA V2 %#x", width, i, v2, a.MA.V2.Uint64())
			}
			if a.Scheme != core.ScriptDirect || a.Bus != 0 {
				t.Fatalf("width %d test %d: scheme %v bus %v", width, i, a.Scheme, a.Bus)
			}
			if len(a.ResponseCells) != 2*stride {
				t.Fatalf("width %d test %d: %d response cells, want %d", width, i, len(a.ResponseCells), 2*stride)
			}
		}
	}
}

func TestWideBusGenerateFilter(t *testing.T) {
	tgt, err := WideBus(16)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tgt.Generate(GenSpec{Filter: func(f maf.Fault) bool { return f.Victim == 3 }})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plan.Programs[0].Applied); got != 4 {
		t.Errorf("filtered plan has %d tests, want 4 (one per kind for the victim)", got)
	}
	if _, err := tgt.Generate(GenSpec{OnlyChannel: "addr"}); err == nil {
		t.Error("Generate accepted a channel the wide bus does not have")
	}
}

// TestWideBusGoldenClean drives the golden run and checks that the response
// memory holds exactly the driven script words: the nominal channel must
// transfer every MA pattern cleanly, and the fill layout must be the
// little-endian stride encoding the plan's response cells promise.
func TestWideBusGoldenClean(t *testing.T) {
	const width = 32
	tgt, err := WideBus(width)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tgt.Generate(GenSpec{})
	if err != nil {
		t.Fatal(err)
	}
	models, err := tgt.BusModels(0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tgt.NewCore(plan, models)
	if err != nil {
		t.Fatal(err)
	}
	res, steps, err := c.Golden(0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.Events != 0 {
		t.Fatalf("golden run: halted=%v events=%d", res.Halted, res.Events)
	}
	prog := plan.Programs[0]
	stride := (width + 7) / 8
	for s, word := range prog.Script {
		for b := 0; b < stride; b++ {
			want := uint8(word >> (8 * b))
			if got := res.Responses[uint16(s*stride+b)]; got != want {
				t.Fatalf("step %d byte %d: response %#x, want %#x", s, b, got, want)
			}
		}
	}
	bus := steps[0]
	if len(bus) != len(prog.Script) {
		t.Fatalf("golden trace has %d steps, want %d", len(bus), len(prog.Script))
	}
	for s := range bus {
		var prev logic.Word
		if s == 0 {
			prev = logic.NewWord(0, width)
		} else {
			prev = logic.NewWord(prog.Script[s-1], width)
		}
		if bus[s].Prev != prev || bus[s].Next != logic.NewWord(prog.Script[s], width) {
			t.Fatalf("step %d: trace (%v -> %v)", s, bus[s].Prev, bus[s].Next)
		}
		if bus[s].Dir != maf.Forward {
			t.Fatalf("step %d: direction %v on a unidirectional bus", s, bus[s].Dir)
		}
	}
}

func TestCheckPlanTargetMismatch(t *testing.T) {
	wb, err := WideBus(16)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := wb.Generate(GenSpec{})
	if err != nil {
		t.Fatal(err)
	}
	models, err := Parwan().BusModels(0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Parwan().NewCore(plan, models)
	if err == nil || !strings.Contains(err.Error(), "generated for widebus16") {
		t.Errorf("parwan accepted a widebus16 plan: %v", err)
	}
}

// TestWideBusGenerateMaxSessions pins the structural reinterpretation of
// MaxSessions on the scripted target: the test script splits across up to
// that many self-contained sessions — the units in-field slicing partitions
// at — while 0 and 1 stay byte-identical to the single-session default.
func TestWideBusGenerateMaxSessions(t *testing.T) {
	tgt := MustWideBus(16)
	planBytes := func(spec GenSpec) []byte {
		t.Helper()
		plan, err := tgt.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := core.WritePlan(&buf, plan); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	def := planBytes(GenSpec{})
	if !bytes.Equal(def, planBytes(GenSpec{MaxSessions: 1})) {
		t.Error("MaxSessions 1 changed the default single-session plan")
	}

	for _, sessions := range []int{2, 5, 8} {
		plan, err := tgt.Generate(GenSpec{MaxSessions: sessions})
		if err != nil {
			t.Fatalf("MaxSessions %d: %v", sessions, err)
		}
		if len(plan.Programs) != sessions {
			t.Fatalf("MaxSessions %d: got %d sessions", sessions, len(plan.Programs))
		}
		tests, minSz, maxSz := 0, 1<<30, 0
		for i, prog := range plan.Programs {
			if prog.Session != i {
				t.Errorf("MaxSessions %d: program %d labeled session %d", sessions, i, prog.Session)
			}
			if len(prog.Script) != 2*len(prog.Applied) {
				t.Errorf("MaxSessions %d session %d: %d script steps for %d tests",
					sessions, i, len(prog.Script), len(prog.Applied))
			}
			stride := 2
			if got, want := len(prog.ResponseCells), len(prog.Script)*stride; got != want {
				t.Errorf("MaxSessions %d session %d: %d response cells, want %d", sessions, i, got, want)
			}
			tests += len(prog.Applied)
			if len(prog.Applied) < minSz {
				minSz = len(prog.Applied)
			}
			if len(prog.Applied) > maxSz {
				maxSz = len(prog.Applied)
			}
		}
		if tests != 4*16 {
			t.Errorf("MaxSessions %d: %d tests across sessions, want 64", sessions, tests)
		}
		if maxSz-minSz > 1 {
			t.Errorf("MaxSessions %d: uneven split, session sizes range %d..%d", sessions, minSz, maxSz)
		}
	}

	// More sessions than tests degenerates to one test per session.
	small, err := tgt.Generate(GenSpec{MaxSessions: 1000, Filter: func(f maf.Fault) bool { return f.Victim == 3 }})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Programs) != 4 {
		t.Fatalf("oversubscribed MaxSessions: %d sessions for 4 tests", len(small.Programs))
	}
}

// TestGeneratedPlansPassReadPlan: every plan the shipped targets generate
// names, in each applied test, only response cells its program unloads and
// only faults of the test's own channel, so it survives core.ReadPlan and
// CheckPlan, which refuse any other plan.
func TestGeneratedPlansPassReadPlan(t *testing.T) {
	even := func(f maf.Fault) bool { return f.Victim%2 == 0 }
	for _, name := range []string{"parwan", "widebus2", "widebus8", "widebus33", "widebus64"} {
		tgt, err := Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		specs := []GenSpec{{}, {Compaction: true}, {MaxSessions: 1}, {MaxSessions: 3}, {Filter: even},
			{Compaction: true, MaxSessions: 2, Filter: even}}
		for _, ch := range tgt.Topology().Names() {
			specs = append(specs, GenSpec{OnlyChannel: ch})
		}
		for i, spec := range specs {
			plan, err := tgt.Generate(spec)
			if err != nil {
				t.Fatalf("%s spec %d: %v", name, i, err)
			}
			if err := CheckPlan(tgt, plan); err != nil {
				t.Errorf("%s spec %d: generated plan fails CheckPlan: %v", name, i, err)
			}
			var buf bytes.Buffer
			if err := core.WritePlan(&buf, plan); err != nil {
				t.Fatal(err)
			}
			if _, err := core.ReadPlan(&buf); err != nil {
				t.Errorf("%s spec %d: generated plan refused: %v", name, i, err)
			}
		}
	}
}

// TestFaultUniversePinned pins each shipped target's fault universe: its
// size and its first and last faults in maf.Compare order. A universe is
// built once per target and shared, and a Set's bit i is universe fault i,
// so these are the indexes every detection set of the target uses.
func TestFaultUniversePinned(t *testing.T) {
	pins := map[string]struct {
		n           int
		first, last string
	}{"parwan": {112, "gp[0]/fwd@8", "df[11]/fwd@12"}}
	for w := 2; w <= 64; w++ {
		pins[fmt.Sprintf("widebus%d", w)] = struct {
			n           int
			first, last string
		}{4 * w, fmt.Sprintf("gp[0]/fwd@%d", w), fmt.Sprintf("df[%d]/fwd@%d", w-1, w)}
	}
	for name, want := range pins {
		tgt, err := Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		u, err := FaultUniverse(tgt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		qualified := func(i int) string { f := u.Fault(i); return fmt.Sprintf("%v@%d", f, f.Width) }
		if u.Len() != want.n || qualified(0) != want.first || qualified(u.Len()-1) != want.last {
			t.Errorf("%s: %d faults from %s to %s, want %d from %s to %s",
				name, u.Len(), qualified(0), qualified(u.Len()-1), want.n, want.first, want.last)
		}
		for i := 1; i < u.Len(); i++ {
			if maf.Compare(u.Fault(i-1), u.Fault(i)) >= 0 {
				t.Fatalf("%s: faults %d and %d out of canonical order", name, i-1, i)
			}
		}
		if again, _ := FaultUniverse(tgt); again != u {
			t.Errorf("%s: a second FaultUniverse call built another universe", name)
		}
	}
	// Parwan's universe is its two channels' faults: 8·4·2 data and 12·4
	// address faults.
	u, _ := FaultUniverse(Parwan())
	data, addr := 0, 0
	for i := 0; i < u.Len(); i++ {
		switch u.Fault(i).Width {
		case 8:
			data++
		case 12:
			addr++
		}
	}
	if data != 64 || addr != 48 {
		t.Errorf("parwan universe holds %d data and %d address faults, want 64 and 48", data, addr)
	}
}

// TestCheckPlanRefusesForeignFaults: an applied test whose fault lies
// outside its own channel's MAFs (a width the channel does not have, the
// other channel's width, the reverse direction on a unidirectional channel,
// or a channel the target lacks) is refused, and the same plan with the
// test's own fault passes.
func TestCheckPlanRefusesForeignFaults(t *testing.T) {
	plan := func(bus core.BusID, f maf.Fault) *core.Plan {
		return &core.Plan{Programs: []*core.TestProgram{{
			Applied: []core.AppliedTest{{MA: maf.Test{Fault: f}, Bus: bus}},
		}}}
	}
	fault := func(victim int, dir maf.Direction, width int) maf.Fault {
		return maf.Fault{Victim: victim, Kind: maf.PositiveGlitch, Dir: dir, Width: width}
	}
	for name, p := range map[string]*core.Plan{
		"width 16 on data":      plan(core.DataBus, fault(0, maf.Forward, 16)),
		"address width on data": plan(core.DataBus, fault(0, maf.Forward, 12)),
		"data width on addr":    plan(core.AddrBus, fault(0, maf.Forward, 8)),
		"reverse on addr":       plan(core.AddrBus, fault(0, maf.Reverse, 12)),
		"victim past the bus":   plan(core.DataBus, fault(8, maf.Forward, 8)),
		"no such channel":       plan(2, fault(0, maf.Forward, 8)),
	} {
		if err := CheckPlan(Parwan(), p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, p := range []*core.Plan{
		plan(core.DataBus, fault(7, maf.Reverse, 8)),
		plan(core.AddrBus, fault(11, maf.Forward, 12)),
	} {
		if err := CheckPlan(Parwan(), p); err != nil {
			t.Errorf("a fault of its own channel is refused: %v", err)
		}
	}
}
