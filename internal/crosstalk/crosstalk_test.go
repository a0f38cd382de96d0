package crosstalk

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/logic"
	"repro/internal/maf"
)

func nominalChannel(t *testing.T, width int) *Channel {
	t.Helper()
	p := Nominal(width)
	th, err := DeriveThresholds(p, 0)
	if err != nil {
		t.Fatalf("DeriveThresholds: %v", err)
	}
	c, err := NewChannel(p, th)
	if err != nil {
		t.Fatalf("NewChannel: %v", err)
	}
	return c
}

// defective returns a channel whose victim wire's couplings are uniformly
// scaled so its net coupling is factor * Cth, with thresholds still derived
// from the nominal geometry.
func defective(t *testing.T, width, victim int, factor float64) *Channel {
	t.Helper()
	nom := Nominal(width)
	th, err := DeriveThresholds(nom, 0)
	if err != nil {
		t.Fatalf("DeriveThresholds: %v", err)
	}
	p := nom.Clone()
	scale := factor * th.Cth / p.NetCoupling(victim)
	for j := 0; j < width; j++ {
		if j == victim {
			continue
		}
		p.Cc[victim][j] *= scale
		p.Cc[j][victim] *= scale
	}
	c, err := NewChannel(p, th)
	if err != nil {
		t.Fatalf("NewChannel: %v", err)
	}
	return c
}

func TestNominalValidates(t *testing.T) {
	for _, w := range []int{2, 8, 12, 32, MaxWidth} {
		if err := Nominal(w).Validate(); err != nil {
			t.Errorf("Nominal(%d).Validate: %v", w, err)
		}
	}
}

func TestNominalGeometry(t *testing.T) {
	p := Nominal(12)
	// Adjacent coupling equals the default; distance-2 coupling is a quarter
	// of it under the inverse-square falloff.
	if got := p.Cc[5][6]; math.Abs(got-DefaultCcAdj) > 1e-21 {
		t.Errorf("adjacent coupling = %g, want %g", got, DefaultCcAdj)
	}
	if got := p.Cc[5][7]; math.Abs(got-DefaultCcAdj/4) > 1e-21 {
		t.Errorf("distance-2 coupling = %g, want %g", got, DefaultCcAdj/4)
	}
	// Centre wires have strictly larger net coupling than edge wires: this
	// asymmetry is what shapes Fig. 11.
	if c, e := p.NetCoupling(5), p.NetCoupling(0); c <= e {
		t.Errorf("centre net coupling %g <= edge %g", c, e)
	}
	if got, want := p.MaxNetCoupling(), p.NetCoupling(5); math.Abs(got-want) > 1e-21 {
		t.Errorf("MaxNetCoupling = %g, want centre value %g", got, want)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	damage := []struct {
		name string
		mod  func(*Params)
	}{
		{"narrow", func(p *Params) { p.Width = 1 }},
		{"wider than a word", func(p *Params) { *p = *Nominal(MaxWidth + 1) }},
		{"cg length", func(p *Params) { p.Cg = p.Cg[:3] }},
		{"cg sign", func(p *Params) { p.Cg[2] = -1 }},
		{"row length", func(p *Params) { p.Cc[1] = p.Cc[1][:2] }},
		{"short later row", func(p *Params) { p.Cc[7] = p.Cc[7][:0] }},
		{"self coupling", func(p *Params) { p.Cc[3][3] = 1e-15 }},
		{"negative coupling", func(p *Params) { p.Cc[0][1] = -1e-15; p.Cc[1][0] = -1e-15 }},
		{"asymmetric", func(p *Params) { p.Cc[0][1] *= 2 }},
		{"negative lower coupling", func(p *Params) { p.Cc[1][0] = -1e-15 }},
		{"nan lower coupling", func(p *Params) { p.Cc[5][2] = math.NaN() }},
		{"resistance", func(p *Params) { p.RDrive[1] = 0 }},
		{"vdd", func(p *Params) { p.Vdd = 0 }},
		{"nan cg", func(p *Params) { p.Cg[3] = math.NaN() }},
		{"nan resistance", func(p *Params) { p.RDrive[0] = math.NaN() }},
		{"nan vdd", func(p *Params) { p.Vdd = math.NaN() }},
	}
	for _, d := range damage {
		p := Nominal(8)
		d.mod(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted damaged params", d.name)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := Nominal(8)
	q := p.Clone()
	q.Cc[0][1] *= 10
	q.Cg[0] *= 10
	if p.Cc[0][1] == q.Cc[0][1] || p.Cg[0] == q.Cg[0] {
		t.Error("Clone shares storage with original")
	}
}

func TestDeriveThresholds(t *testing.T) {
	p := Nominal(12)
	th, err := DeriveThresholds(p, 0)
	if err != nil {
		t.Fatalf("DeriveThresholds: %v", err)
	}
	if err := th.Validate(); err != nil {
		t.Fatalf("thresholds invalid: %v", err)
	}
	if th.Cth <= p.MaxNetCoupling() {
		t.Errorf("Cth %g not above max nominal net coupling %g", th.Cth, p.MaxNetCoupling())
	}
	// The delay criterion trips at Cth; the glitch criterion at the margin
	// above it.
	gcth := DefaultGlitchMargin * th.Cth
	wantGlitch := gcth / (p.Cg[0] + gcth)
	if math.Abs(th.GlitchFrac-wantGlitch) > 1e-12 {
		t.Errorf("GlitchFrac = %g, want %g", th.GlitchFrac, wantGlitch)
	}
}

func TestDeriveThresholdsRejects(t *testing.T) {
	if _, err := DeriveThresholds(Nominal(8), 0.9); err == nil {
		t.Error("cthFactor <= 1 accepted")
	}
	// NaN and the infinities are refused by name, and never replaced by a
	// default.
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			name                    string
			cthFactor, glitchMargin float64
		}{{"cthFactor", x, 0}, {"glitchMargin", 0, x}} {
			_, err := DeriveThresholdsMargin(Nominal(8), tc.cthFactor, tc.glitchMargin)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%s %g is not finite", tc.name, x)) {
				t.Errorf("%s %g: err = %v, want a refusal naming it", tc.name, x, err)
			}
		}
	}
	p := Nominal(8)
	p.Cg[3] *= 2
	if _, err := DeriveThresholds(p, 1.5); err == nil {
		t.Error("non-uniform Cg accepted")
	}
	p = Nominal(8)
	p.Vdd = -1
	if _, err := DeriveThresholds(p, 1.5); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestThresholdsValidate(t *testing.T) {
	good := Thresholds{Cth: 1e-13, GlitchFrac: 0.5, Slack: [2]float64{1e-9, 1e-9}, Cg0: 1e-13}
	if err := good.Validate(); err != nil {
		t.Fatalf("good thresholds rejected: %v", err)
	}
	bad := []Thresholds{
		{Cth: 0, GlitchFrac: 0.5, Slack: [2]float64{1, 1}, Cg0: 1},
		{Cth: 1, GlitchFrac: 0, Slack: [2]float64{1, 1}, Cg0: 1},
		{Cth: 1, GlitchFrac: 1.5, Slack: [2]float64{1, 1}, Cg0: 1},
		{Cth: 1, GlitchFrac: 0.5, Slack: [2]float64{0, 1}, Cg0: 1},
		{Cth: 1, GlitchFrac: 0.5, Slack: [2]float64{1, 1}, Cg0: 0},
		{Cth: math.NaN(), GlitchFrac: 0.5, Slack: [2]float64{1, 1}, Cg0: 1},
		{Cth: 1, GlitchFrac: math.NaN(), Slack: [2]float64{1, 1}, Cg0: 1},
		{Cth: 1, GlitchFrac: 0.5, Slack: [2]float64{1, math.NaN()}, Cg0: 1},
		{Cth: 1, GlitchFrac: 0.5, Slack: [2]float64{1, 1}, Cg0: math.NaN()},
	}
	for i, th := range bad {
		if err := th.Validate(); err == nil {
			t.Errorf("bad thresholds %d accepted", i)
		}
	}
}

// TestNominalBusIsClean: the defect-free bus transfers every MA pattern (the
// worst-case patterns) without error, in both directions.
func TestNominalBusIsClean(t *testing.T) {
	c := nominalChannel(t, 12)
	for _, mt := range maf.Tests(12, true) {
		if got, events := c.Transmit(mt.V1, mt.V2, mt.Fault.Dir); !got.Equal(mt.V2) {
			t.Errorf("nominal bus corrupted %v: received %s, events %v", mt, got, events)
		}
	}
}

// TestDefectDetectedByItsMATest: a defect that raises one victim's net
// coupling above Cth produces exactly the four MAF error effects on that
// victim under the corresponding MA tests.
func TestDefectDetectedByItsMATest(t *testing.T) {
	const width, victim = 12, 5
	c := defective(t, width, victim, 1.3)
	for _, k := range maf.Kinds {
		v1, v2 := maf.Vectors(k, victim, width)
		got, events := c.Transmit(v1, v2, maf.Forward)
		if len(events) != 1 || events[0].Wire != victim || events[0].Kind != k {
			t.Errorf("%s[%d]: events = %v, want single %s on wire %d", k, victim, events, k, victim)
			continue
		}
		var want logic.Word
		switch k {
		case maf.PositiveGlitch, maf.NegativeGlitch:
			want = v2.FlipBit(victim)
		default:
			want = v2.WithBit(victim, v1.Bit(victim))
		}
		if !got.Equal(want) {
			t.Errorf("%s[%d]: received %s, want %s", k, victim, got, want)
		}
	}
}

// TestDefectNotDetectedByOtherVictimsTests: the defect on wire 5 does not err
// under MA tests targeting distant wires (their victims are clean and wire 5
// transitions with everyone else, so it sees no opposing aggressors).
func TestDefectNotDetectedByDistantTests(t *testing.T) {
	const width, victim = 12, 5
	c := defective(t, width, victim, 1.1)
	for _, k := range maf.Kinds {
		v1, v2 := maf.Vectors(k, 11, width)
		if got, events := c.Transmit(v1, v2, maf.Forward); !got.Equal(v2) {
			t.Errorf("defect on wire %d excited by %s[11]: received %s events %v", victim, k, got, events)
		}
	}
}

// TestThresholdExactness: detection flips exactly at the kind's threshold —
// Cth for delay errors, the glitch margin above it for glitch errors — the
// monotone criterion the model promises.
func TestThresholdExactness(t *testing.T) {
	const width, victim = 8, 3
	for _, k := range maf.Kinds {
		point := 1.0
		if k.IsGlitch() {
			point = DefaultGlitchMargin
		}
		below := defective(t, width, victim, point*0.999)
		above := defective(t, width, victim, point*1.001)
		v1, v2 := maf.Vectors(k, victim, width)
		if _, events := below.Transmit(v1, v2, maf.Forward); len(events) != 0 {
			t.Errorf("%s: sub-threshold defect detected: %v", k, events)
		}
		if _, events := above.Transmit(v1, v2, maf.Forward); len(events) == 0 {
			t.Errorf("%s: supra-threshold defect missed", k)
		}
	}
}

// TestPartialAggressorPatternWeaker: with only half the aggressors switching,
// a defect just above Cth is not excited — partial functional patterns
// under-test relative to MA patterns, which is why the paper insists on
// applying the exact MA pairs.
func TestPartialAggressorPatternWeaker(t *testing.T) {
	const width, victim = 8, 3
	c := defective(t, width, victim, 1.3)
	// Positive-glitch-like pattern with only wires 0..2 rising.
	v1 := logic.NewWord(0, width)
	v2 := logic.NewWord(0b0000_0111, width)
	if _, events := c.Transmit(v1, v2, maf.Forward); len(events) != 0 {
		t.Errorf("partial pattern excited near-threshold defect: %v", events)
	}
	// The full MA pattern does excite it.
	m1, m2 := maf.Vectors(maf.PositiveGlitch, victim, width)
	if _, events := c.Transmit(m1, m2, maf.Forward); len(events) == 0 {
		t.Error("full MA pattern failed to excite defect")
	}
}

// TestOpposingAggressorsCancel: equal numbers of rising and falling
// aggressors around a stable victim produce no net glitch.
func TestOpposingAggressorsCancel(t *testing.T) {
	c := defective(t, 3, 1, 2.0) // gross defect on centre wire of a 3-wire bus
	// Wire 0 rises, wire 2 falls, victim 1 stable at 0: pushes cancel
	// (symmetric nominal geometry scaled uniformly keeps them equal).
	v1 := logic.MustParseWord("100") // wire2=1, wire1=0, wire0=0
	v2 := logic.MustParseWord("001")
	if _, events := c.Transmit(v1, v2, maf.Forward); len(events) != 0 {
		t.Errorf("cancelling aggressors produced events: %v", events)
	}
}

// TestSameDirectionAggressorsHelp: when all wires transition together the
// Miller factor is zero, so even a gross defect causes no delay error.
func TestSameDirectionAggressorsHelp(t *testing.T) {
	const width = 8
	c := defective(t, width, 3, 3.0)
	all := logic.NewWord(0, width).Invert()
	zero := logic.NewWord(0, width)
	if _, events := c.Transmit(zero, all, maf.Forward); len(events) != 0 {
		t.Errorf("simultaneous rise produced events: %v", events)
	}
	if _, events := c.Transmit(all, zero, maf.Forward); len(events) != 0 {
		t.Errorf("simultaneous fall produced events: %v", events)
	}
}

// TestDirectionDependentDelay: a weaker driver in one direction lowers the
// delay threshold for that direction only.
func TestDirectionDependentDelay(t *testing.T) {
	const width, victim = 8, 4
	nom := Nominal(width)
	th, err := DeriveThresholds(nom, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Defect at 0.95 * Cth: clean under nominal drive in both directions.
	p := nom.Clone()
	scale := 0.95 * th.Cth / p.NetCoupling(victim)
	for j := 0; j < width; j++ {
		if j != victim {
			p.Cc[victim][j] *= scale
			p.Cc[j][victim] *= scale
		}
	}
	// Weaken the Reverse driver by 20%: delay grows proportionally to R, so
	// the same defect now errs in Reverse but not Forward.
	p.RDrive[maf.Reverse] *= 1.2
	c, err := NewChannel(p, th)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := maf.Vectors(maf.RisingDelay, victim, width)
	if _, events := c.Transmit(v1, v2, maf.Forward); len(events) != 0 {
		t.Errorf("forward direction erred: %v", events)
	}
	if _, events := c.Transmit(v1, v2, maf.Reverse); len(events) == 0 {
		t.Error("weak-driver direction did not err")
	}
}

func TestAnalyzeFields(t *testing.T) {
	c := nominalChannel(t, 8)
	v1, v2 := maf.Vectors(maf.RisingDelay, 2, 8)
	wa := c.Analyze(v1, v2, maf.Forward)
	if len(wa) != 8 {
		t.Fatalf("analysis length %d", len(wa))
	}
	if wa[2].Transition != logic.Rising || wa[2].Delay <= 0 {
		t.Errorf("victim analysis = %+v", wa[2])
	}
	// Aggressors fall while the victim rises: each one's delay is also
	// computed (they see the victim as an opposing aggressor).
	if wa[0].Transition != logic.Falling || wa[0].Delay <= 0 {
		t.Errorf("aggressor analysis = %+v", wa[0])
	}
	// Stable victim under a glitch pattern gets a positive glitch fraction.
	g1, g2 := maf.Vectors(maf.PositiveGlitch, 4, 8)
	wa = c.Analyze(g1, g2, maf.Forward)
	if wa[4].GlitchFrac <= 0 {
		t.Errorf("glitch fraction = %g, want > 0", wa[4].GlitchFrac)
	}
}

func TestAnalyzePanicsOnWidthMismatch(t *testing.T) {
	c := nominalChannel(t, 8)
	defer func() {
		if recover() == nil {
			t.Error("width mismatch did not panic")
		}
	}()
	c.Analyze(logic.NewWord(0, 12), logic.NewWord(0, 12), maf.Forward)
}

func TestNewChannelRejectsInvalid(t *testing.T) {
	p := Nominal(8)
	th, _ := DeriveThresholds(p, 0)
	bad := p.Clone()
	bad.Vdd = 0
	if _, err := NewChannel(bad, th); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := NewChannel(p, Thresholds{}); err == nil {
		t.Error("invalid thresholds accepted")
	}
}

func TestCleanHelper(t *testing.T) {
	nomC := nominalChannel(t, 8)
	v1, v2 := maf.Vectors(maf.PositiveGlitch, 3, 8)
	if !nomC.Clean(v1, v2, maf.Forward) {
		t.Error("nominal channel reported unclean")
	}
	defC := defective(t, 8, 3, 1.5)
	if defC.Clean(v1, v2, maf.Forward) {
		t.Error("defective channel reported clean")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Wire: 3, Kind: maf.PositiveGlitch, Magnitude: 0.75}
	if got := e.String(); got != "gp[3](0.75)" {
		t.Errorf("Event.String() = %q", got)
	}
}

// Property: detection under the MA pattern is monotone in the scale of the
// victim's coupling, flipping at the kind's threshold point.
func TestDetectionMonotoneInCoupling(t *testing.T) {
	f := func(scalePct uint8, kindSel uint8) bool {
		factor := 0.5 + float64(scalePct)/128.0 // 0.5 .. ~2.5
		k := maf.Kinds[int(kindSel)%4]
		point := 1.0
		if k.IsGlitch() {
			point = DefaultGlitchMargin
		}
		if math.Abs(factor-point) < 1e-6 {
			return true // exactly at the threshold: rounding decides
		}
		const width, victim = 8, 4
		c := defective(t, width, victim, factor)
		v1, v2 := maf.Vectors(k, victim, width)
		_, events := c.Transmit(v1, v2, maf.Forward)
		detected := len(events) > 0
		return detected == (factor > point)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a transmit never changes bits on wires with no error event.
func TestTransmitOnlyChangesEventWires(t *testing.T) {
	c := defective(t, 8, 2, 1.4)
	f := func(a, b uint8) bool {
		v1 := logic.NewWord(uint64(a), 8)
		v2 := logic.NewWord(uint64(b), 8)
		got, events := c.Transmit(v1, v2, maf.Forward)
		diff := got.Xor(v2)
		errWires := logic.NewWord(0, 8)
		for _, e := range events {
			errWires = errWires.WithBit(e.Wire, 1)
		}
		return diff.Equal(errWires) || diff.OnesCount() <= errWires.OnesCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParameterFileRoundTrip(t *testing.T) {
	p := Nominal(12)
	th, err := DeriveThresholds(p, 1.7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, p, th); err != nil {
		t.Fatalf("Write: %v", err)
	}
	q, th2, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if q.Width != p.Width || q.Vdd != p.Vdd {
		t.Errorf("round trip lost scalar fields: %+v", q)
	}
	for i := range p.Cc {
		for j := range p.Cc[i] {
			if p.Cc[i][j] != q.Cc[i][j] {
				t.Fatalf("Cc[%d][%d] changed: %g -> %g", i, j, p.Cc[i][j], q.Cc[i][j])
			}
		}
	}
	if th2 != th {
		t.Errorf("thresholds changed: %+v -> %+v", th, th2)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, _, err := Read(bytes.NewBufferString("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, _, err := Read(bytes.NewBufferString(`{"thresholds":{}}`)); err == nil {
		t.Error("missing params accepted")
	}
	if _, _, err := Read(bytes.NewBufferString(`{"params":{"width":0},"thresholds":{}}`)); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestReadRejectsTooWide checks that a parameter file describing a bus
// wider than a logic.Word is refused at the edge, instead of panicking
// later when a channel builds words of that width.
func TestReadRejectsTooWide(t *testing.T) {
	th, err := DeriveThresholds(Nominal(8), 0)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(parameterFile{Params: Nominal(80), Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(bytes.NewReader(doc)); err == nil {
		t.Error("80-wire parameter file accepted")
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	p := Nominal(8)
	p.Vdd = 0
	if err := Write(&buf, p, Thresholds{Cth: 1, GlitchFrac: 0.5, Slack: [2]float64{1, 1}, Cg0: 1}); err == nil {
		t.Error("invalid params written")
	}
	if err := Write(&buf, Nominal(8), Thresholds{}); err == nil {
		t.Error("invalid thresholds written")
	}
}

func TestFileRoundTrip(t *testing.T) {
	p := Nominal(8)
	th, err := DeriveThresholds(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/bus.json"
	if err := WriteFile(path, p, th); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	q, th2, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if q.Width != 8 || th2.Cth != th.Cth {
		t.Error("file round trip mismatch")
	}
	if _, _, err := ReadFile(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}
