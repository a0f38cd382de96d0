package core

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/maf"
	"repro/internal/parwan"
)

// Serialized forms of the plan, for handing programs to an external tester
// flow (or another tool) and loading them back. The memory image is stored
// as sparse hex chunks so the file stays reviewable.

type planJSON struct {
	Compaction   bool           `json:"compaction"`
	Target       string         `json:"target,omitempty"`
	Channels     []string       `json:"channels,omitempty"`
	Programs     []programJSON  `json:"programs"`
	Inapplicable []rejectedJSON `json:"inapplicable,omitempty"`
}

type programJSON struct {
	Session       int           `json:"session"`
	Entry         uint16        `json:"entry"`
	StepLimit     int           `json:"step_limit"`
	ResponseCells []uint16      `json:"response_cells"`
	Applied       []appliedJSON `json:"applied"`
	Chunks        []chunkJSON   `json:"image,omitempty"`
	Script        []string      `json:"script,omitempty"`
	ScriptWidth   int           `json:"script_width,omitempty"`
}

type chunkJSON struct {
	Addr uint16 `json:"addr"`
	Hex  string `json:"hex"`
}

type appliedJSON struct {
	Victim        int      `json:"victim"`
	Kind          string   `json:"kind"`
	Dir           string   `json:"dir"`
	Width         int      `json:"width"`
	Bus           string   `json:"bus"`
	Scheme        string   `json:"scheme"`
	Order         int      `json:"order"`
	ResponseCells []uint16 `json:"response_cells"`
}

type rejectedJSON struct {
	Victim int    `json:"victim"`
	Kind   string `json:"kind"`
	Dir    string `json:"dir"`
	Width  int    `json:"width"`
	Bus    string `json:"bus"`
	Reason string `json:"reason"`
}

var kindNames = map[string]maf.Kind{
	"gp": maf.PositiveGlitch, "gn": maf.NegativeGlitch,
	"dr": maf.RisingDelay, "df": maf.FallingDelay,
}

var busNames = map[string]BusID{"data": DataBus, "addr": AddrBus}

var schemeNames = map[string]Scheme{
	"data-fwd": DataForward, "data-rev": DataReverse,
	"addr-direct": AddrDirect, "addr-two-instr": AddrTwoInstr,
	"script": ScriptDirect,
}

// WritePlan serialises the plan as JSON.
func WritePlan(w io.Writer, p *Plan) error {
	out := planJSON{Compaction: p.Compaction, Target: p.Target, Channels: p.Channels}
	for _, prog := range p.Programs {
		pj := programJSON{
			Session:       prog.Session,
			Entry:         prog.Entry,
			StepLimit:     prog.StepLimit,
			ResponseCells: prog.ResponseCells,
			ScriptWidth:   prog.ScriptWidth,
		}
		for _, a := range prog.Applied {
			pj.Applied = append(pj.Applied, appliedJSON{
				Victim: a.MA.Fault.Victim, Kind: a.MA.Fault.Kind.String(),
				Dir: a.MA.Fault.Dir.String(), Width: a.MA.Fault.Width,
				Bus: p.BusName(a.Bus), Scheme: a.Scheme.String(),
				Order: a.Order, ResponseCells: a.ResponseCells,
			})
		}
		for _, word := range prog.Script {
			pj.Script = append(pj.Script, fmt.Sprintf("%x", word))
		}
		if prog.Image != nil {
			addrs := prog.Image.UsedAddrs()
			for i := 0; i < len(addrs); {
				j := i
				for j+1 < len(addrs) && addrs[j+1] == addrs[j]+1 {
					j++
				}
				run := make([]byte, 0, j-i+1)
				for k := i; k <= j; k++ {
					run = append(run, prog.Image.Get(addrs[k]))
				}
				pj.Chunks = append(pj.Chunks, chunkJSON{Addr: addrs[i], Hex: hex.EncodeToString(run)})
				i = j + 1
			}
		}
		out.Programs = append(out.Programs, pj)
	}
	for _, r := range p.Inapplicable {
		out.Inapplicable = append(out.Inapplicable, rejectedJSON{
			Victim: r.MA.Fault.Victim, Kind: r.MA.Fault.Kind.String(),
			Dir: r.MA.Fault.Dir.String(), Width: r.MA.Fault.Width,
			Bus: p.BusName(r.Bus), Reason: r.Reason,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Bounds ReadPlan puts on a plan, since every xtalkd role reads inline plans
// from untrusted specs. A golden run keeps a snapshot and a traced
// transaction per step, so its memory grows with the step limit: one
// program looping for 4,194,304 steps allocates about 6.9 GiB. The largest
// generated plans stay well inside: parwan's has 8 programs whose step
// limits sum to 9,520, and widebus64's has 256 programs.
const (
	// MaxPlanSteps caps the sum of a plan's program step limits.
	MaxPlanSteps = 1 << 16
	// MaxPlanPrograms caps the number of programs in a plan.
	MaxPlanPrograms = 1024
)

// ReadPlan parses a plan previously produced by WritePlan. It refuses a
// plan over MaxPlanPrograms programs or MaxPlanSteps steps, and one whose
// applied test names a response cell its program never unloads.
func ReadPlan(r io.Reader) (*Plan, error) {
	var in planJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decoding plan: %w", err)
	}
	if len(in.Programs) > MaxPlanPrograms {
		return nil, fmt.Errorf("core: plan has %d programs, more than %d", len(in.Programs), MaxPlanPrograms)
	}
	steps := 0
	p := &Plan{Compaction: in.Compaction, Target: in.Target, Channels: in.Channels}
	busFor := func(name string) (BusID, bool) {
		for i, ch := range in.Channels {
			if ch == name {
				return BusID(i), true
			}
		}
		if len(in.Channels) > 0 {
			return 0, false
		}
		b, ok := busNames[name]
		return b, ok
	}
	parseFault := func(victim int, kind, dir string, width int) (maf.Fault, error) {
		k, ok := kindNames[kind]
		if !ok {
			return maf.Fault{}, fmt.Errorf("core: unknown fault kind %q", kind)
		}
		d := maf.Forward
		if dir == "rev" {
			d = maf.Reverse
		} else if dir != "fwd" {
			return maf.Fault{}, fmt.Errorf("core: unknown direction %q", dir)
		}
		if width < 1 || width > 64 { // bus words are 64-bit (logic.Word)
			return maf.Fault{}, fmt.Errorf("core: fault width %d outside [1, 64] wires", width)
		}
		if victim < 0 || victim >= width {
			return maf.Fault{}, fmt.Errorf("core: victim %d out of range for width %d", victim, width)
		}
		return maf.Fault{Victim: victim, Kind: k, Dir: d, Width: width}, nil
	}
	for _, pj := range in.Programs {
		if pj.StepLimit < 0 || pj.StepLimit > MaxPlanSteps-steps {
			return nil, fmt.Errorf("core: step limit %d of session %d is negative or takes the plan over %d steps",
				pj.StepLimit, pj.Session, MaxPlanSteps)
		}
		steps += pj.StepLimit
		prog := &TestProgram{
			Session:       pj.Session,
			Entry:         pj.Entry,
			StepLimit:     pj.StepLimit,
			ResponseCells: pj.ResponseCells,
			ScriptWidth:   pj.ScriptWidth,
		}
		if len(pj.Script) > 0 {
			// Scripted-initiator program: the word sequence is the program.
			for _, s := range pj.Script {
				word, err := strconv.ParseUint(s, 16, 64)
				if err != nil {
					return nil, fmt.Errorf("core: script word %q: %w", s, err)
				}
				prog.Script = append(prog.Script, word)
			}
		} else {
			prog.Image = parwan.NewImage()
			for _, c := range pj.Chunks {
				bs, err := hex.DecodeString(c.Hex)
				if err != nil {
					return nil, fmt.Errorf("core: chunk at %03x: %w", c.Addr, err)
				}
				if err := prog.Image.SetBytes(c.Addr, bs); err != nil {
					return nil, err
				}
			}
		}
		for _, a := range pj.Applied {
			f, err := parseFault(a.Victim, a.Kind, a.Dir, a.Width)
			if err != nil {
				return nil, err
			}
			bus, ok := busFor(a.Bus)
			if !ok {
				return nil, fmt.Errorf("core: unknown bus %q", a.Bus)
			}
			scheme, ok := schemeNames[a.Scheme]
			if !ok {
				return nil, fmt.Errorf("core: unknown scheme %q", a.Scheme)
			}
			prog.Applied = append(prog.Applied, AppliedTest{
				MA: maf.TestFor(f), Bus: bus, Scheme: scheme,
				Order: a.Order, ResponseCells: a.ResponseCells,
			})
		}
		if _, err := prog.ResponseIndex(); err != nil {
			return nil, err
		}
		p.Programs = append(p.Programs, prog)
	}
	for _, r := range in.Inapplicable {
		f, err := parseFault(r.Victim, r.Kind, r.Dir, r.Width)
		if err != nil {
			return nil, err
		}
		bus, ok := busFor(r.Bus)
		if !ok {
			return nil, fmt.Errorf("core: unknown bus %q", r.Bus)
		}
		p.Inapplicable = append(p.Inapplicable, Rejected{MA: maf.TestFor(f), Bus: bus, Reason: r.Reason})
	}
	return p, nil
}

// SavePlan writes the plan to a file.
func SavePlan(path string, p *Plan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WritePlan(f, p); err != nil {
		return err
	}
	return f.Close()
}

// LoadPlan reads a plan from a file.
func LoadPlan(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadPlan(f)
}
