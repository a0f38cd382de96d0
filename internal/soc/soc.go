// Package soc wires the embedded processor, the memory, and optional
// memory-mapped peripheral cores into the paper's CPU-memory system, routing
// every bus transaction through crosstalk channels (paper Fig. 9).
//
// Bus geometry and conventions:
//
//   - The 12-bit address bus is unidirectional, CPU to memory; its
//     transitions are always transmitted in maf.Forward direction.
//   - The 8-bit data bus is bidirectional: maf.Forward is memory-to-CPU
//     (reads), maf.Reverse is CPU-to-memory (writes).
//   - Between transactions the busses are released to high impedance and
//     hold their last driven value (the paper's "when z appears, the bus
//     holds the last defined value"), so consecutive transactions form the
//     vector pairs the crosstalk model sees.
//
// Crosstalk consequences are routed faithfully: a corrupted address delivers
// the access to the wrong location (so a read returns the wrong location's
// data and a write lands in the wrong cell), and corrupted data delivers the
// wrong value.
package soc

import (
	"fmt"
	"sort"

	"repro/internal/crosstalk"
	"repro/internal/logic"
	"repro/internal/maf"
	"repro/internal/memory"
	"repro/internal/parwan"
)

// Control-bus encoding: a 2-wire command bus from the CPU to the memory
// side, wire 0 = read strobe, wire 1 = write strobe. The bus always carries
// a command during a transaction (idle and both-asserted patterns are not
// functionally reachable — which is exactly what makes hardware BIST
// over-test the control bus; see internal/ctrltest).
const (
	CtrlBits  = 2
	CtrlRead  = 0b01
	CtrlWrite = 0b10
)

// Transaction records one bus access for tracing and analysis.
type Transaction struct {
	Seq        int
	Write      bool
	Addr       uint16 // address driven by the CPU
	AddrRecv   uint16 // address received by the memory side
	Data       uint8  // data driven (by memory on reads, CPU on writes)
	DataRecv   uint8  // data received
	AddrPrev   uint16 // previous value held on the address bus
	DataPrev   uint8  // previous value held on the data bus
	Ctrl       uint8  // control command driven (CtrlRead or CtrlWrite)
	CtrlRecv   uint8  // control command received by the memory side
	CtrlPrev   uint8  // previous command held on the control bus
	AddrEvents []crosstalk.Event
	DataEvents []crosstalk.Event
	CtrlEvents []crosstalk.Event
}

// String renders the transaction compactly.
func (tr Transaction) String() string {
	dir := "R"
	if tr.Write {
		dir = "W"
	}
	s := fmt.Sprintf("#%d %s %03x", tr.Seq, dir, tr.Addr)
	if tr.AddrRecv != tr.Addr {
		s += fmt.Sprintf("->%03x!", tr.AddrRecv)
	}
	s += fmt.Sprintf(" %02x", tr.Data)
	if tr.DataRecv != tr.Data {
		s += fmt.Sprintf("->%02x!", tr.DataRecv)
	}
	return s
}

// Corrupted reports whether the transaction suffered any crosstalk error on
// the address, data, or control bus.
func (tr Transaction) Corrupted() bool {
	return len(tr.AddrEvents) > 0 || len(tr.DataEvents) > 0 || len(tr.CtrlEvents) > 0
}

// Region maps a half-open address range onto a peripheral device. Offsets
// presented to the device are relative to Base.
type Region struct {
	Base uint16
	Dev  memory.Device
}

// Config assembles a System. Leaving a channel nil makes that bus ideal
// (crosstalk-free), which is how golden reference runs are produced.
type Config struct {
	AddrChannel *crosstalk.Channel // 12-wire channel or nil
	DataChannel *crosstalk.Channel // 8-wire channel or nil
	CtrlChannel *crosstalk.Channel // 2-wire control channel or nil
	Peripherals []Region           // optional memory-mapped cores
	Trace       bool               // record every transaction
}

// System is the CPU-memory system under test.
type System struct {
	CPU *parwan.CPU
	RAM *memory.RAM

	addrCh  *crosstalk.Channel
	dataCh  *crosstalk.Channel
	ctrlCh  *crosstalk.Channel
	regions []Region

	prevAddr logic.Word
	prevData logic.Word
	prevCtrl logic.Word

	seq        int
	trace      []Transaction
	tracing    bool
	errorCount int

	logStores bool
	stores    []Store

	logAddr, logData bool
	transfers        []Transfer
}

// Store is one RAM store the store log recorded: the cell written and the
// value the store overwrote.
type Store struct {
	Addr uint16
	Old  uint8
}

// Transfer is one transfer the transfer log recorded: the word the bus held
// before it, the word driven, the drive direction, the word the receiver
// latched, and the number of crosstalk error events the transfer suffered.
type Transfer struct {
	Held, Driven, Received logic.Word
	Dir                    maf.Direction
	Events                 int
}

// checkChannels validates the bus widths of a channel set (nil = ideal bus).
func checkChannels(addr, data, ctrl *crosstalk.Channel) error {
	if addr != nil && addr.Width() != parwan.AddrBits {
		return fmt.Errorf("soc: address channel is %d wires, want %d",
			addr.Width(), parwan.AddrBits)
	}
	if data != nil && data.Width() != parwan.DataBits {
		return fmt.Errorf("soc: data channel is %d wires, want %d",
			data.Width(), parwan.DataBits)
	}
	if ctrl != nil && ctrl.Width() != CtrlBits {
		return fmt.Errorf("soc: control channel is %d wires, want %d",
			ctrl.Width(), CtrlBits)
	}
	return nil
}

// New builds a system from cfg. The RAM always spans the full 4K space;
// peripheral regions shadow it where they overlap.
func New(cfg Config) (*System, error) {
	if err := checkChannels(cfg.AddrChannel, cfg.DataChannel, cfg.CtrlChannel); err != nil {
		return nil, err
	}
	regions := append([]Region(nil), cfg.Peripherals...)
	sort.Slice(regions, func(i, j int) bool { return regions[i].Base < regions[j].Base })
	for i, r := range regions {
		if r.Dev == nil {
			return nil, fmt.Errorf("soc: peripheral region %d has nil device", i)
		}
		end := int(r.Base) + r.Dev.Size()
		if end > parwan.MemSize {
			return nil, fmt.Errorf("soc: peripheral at %03x size %d overflows address space",
				r.Base, r.Dev.Size())
		}
		if i > 0 {
			prev := regions[i-1]
			if int(prev.Base)+prev.Dev.Size() > int(r.Base) {
				return nil, fmt.Errorf("soc: peripheral regions at %03x and %03x overlap",
					prev.Base, r.Base)
			}
		}
	}
	s := &System{
		RAM:      memory.NewRAM(parwan.MemSize),
		addrCh:   cfg.AddrChannel,
		dataCh:   cfg.DataChannel,
		ctrlCh:   cfg.CtrlChannel,
		regions:  regions,
		prevAddr: logic.NewWord(0, parwan.AddrBits),
		prevData: logic.NewWord(0, parwan.DataBits),
		prevCtrl: logic.NewWord(CtrlRead, CtrlBits),
		tracing:  cfg.Trace,
	}
	s.CPU = parwan.New(s)
	return s, nil
}

// NewIdeal builds a crosstalk-free system, used for golden reference runs.
func NewIdeal() *System {
	s, err := New(Config{})
	if err != nil {
		panic(err) // cannot happen: the empty config is always valid
	}
	return s
}

// LoadImage copies a program image into RAM and resets the CPU.
func (s *System) LoadImage(im *parwan.Image) {
	s.RAM.Load(im.Bytes())
	s.CPU.Reset()
}

// LoadBytes copies a prebuilt full memory image into RAM without touching
// CPU or bus state; callers pair it with Reset. It lets a defect campaign
// render each session program to bytes once and reuse the buffer across
// thousands of runs instead of re-serialising the parwan.Image every time.
func (s *System) LoadBytes(img []byte) { s.RAM.Load(img) }

// Reset returns the system to its power-on state: CPU reset (including the
// cycle and step counters), busses holding their initial values, and the
// trace, transaction-sequence and error counters cleared. RAM contents are
// left as-is — callers reload a full image via LoadImage or LoadBytes.
// Reset is what lets the simulator reuse one System (and its 4K RAM and
// channels) across defect runs instead of reallocating per run.
func (s *System) Reset() {
	s.prevAddr = logic.NewWord(0, parwan.AddrBits)
	s.prevData = logic.NewWord(0, parwan.DataBits)
	s.prevCtrl = logic.NewWord(CtrlRead, CtrlBits)
	s.seq = 0
	s.trace = s.trace[:0]
	s.errorCount = 0
	s.CPU.Reset()
	s.CPU.Cycles, s.CPU.Steps = 0, 0
}

// SetChannels replaces the crosstalk channels routing the system's busses
// (nil makes that bus ideal). Swapping channels on a Reset system is how a
// campaign reuses one System across defects: only the defective bus's
// channel changes per run, the nominal channels persist.
func (s *System) SetChannels(addr, data, ctrl *crosstalk.Channel) error {
	if err := checkChannels(addr, data, ctrl); err != nil {
		return err
	}
	s.addrCh, s.dataCh, s.ctrlCh = addr, data, ctrl
	return nil
}

// SetHeld forces the values the busses currently hold between transactions.
// Together with direct CPU state assignment and Poke it lets the simulator
// resume execution from a mid-program snapshot (the batched engine's
// divergence fallback) instead of re-executing a program from its entry.
func (s *System) SetHeld(addr uint16, data uint8, ctrl uint8) {
	s.prevAddr = logic.NewWord(uint64(addr), parwan.AddrBits)
	s.prevData = logic.NewWord(uint64(data), parwan.DataBits)
	s.prevCtrl = logic.NewWord(uint64(ctrl), CtrlBits)
}

// Held returns the values the busses currently hold between transactions,
// the inverse of SetHeld.
func (s *System) Held() (addr uint16, data uint8, ctrl uint8) {
	return uint16(s.prevAddr.Uint64()), uint8(s.prevData.Uint64()), uint8(s.prevCtrl.Uint64())
}

// LogStores switches the RAM store log on or off and empties it. While it
// is on, every store the busses deliver to RAM (not Poke) is logged with the
// value it overwrote, which lets a resumed run track the cells it changed
// without comparing all of memory.
func (s *System) LogStores(on bool) {
	s.logStores = on
	s.stores = s.stores[:0]
}

// TakeStores returns the stores logged since the last call and empties the
// log. The slice is reused: it is valid until the next store.
func (s *System) TakeStores() []Store {
	out := s.stores
	s.stores = s.stores[:0]
	return out
}

// LogTransfers switches the transfer log on for the address bus (addr), the
// data bus (data), or neither, and empties it. While it is on, every
// transfer over a logged bus is logged, which lets a caller test what
// another channel would have latched on the same traffic.
func (s *System) LogTransfers(addr, data bool) {
	s.logAddr, s.logData = addr, data
	s.transfers = s.transfers[:0]
}

// TakeTransfers returns the transfers logged since the last call and
// empties the log. The slice is reused: it is valid until the next transfer.
func (s *System) TakeTransfers() []Transfer {
	out := s.transfers
	s.transfers = s.transfers[:0]
	return out
}

// SetErrorCount sets the error-event count ErrorCount reports, so a run
// resumed at a recorded boundary carries the events counted before it.
func (s *System) SetErrorCount(n int) { s.errorCount = n }

// Seq returns the number of bus transactions performed since construction
// or the last Reset.
func (s *System) Seq() int { return s.seq }

// device resolves an already-received (possibly corrupted) address to the
// backing device and local offset.
func (s *System) device(addr uint16) (memory.Device, uint16) {
	for _, r := range s.regions {
		if addr >= r.Base && int(addr) < int(r.Base)+r.Dev.Size() {
			return r.Dev, addr - r.Base
		}
	}
	return s.RAM, addr
}

// transmitAddr sends an address over the address bus, applying crosstalk.
func (s *System) transmitAddr(addr logic.Word) (uint16, []crosstalk.Event) {
	recv, events := s.transmit(s.addrCh, s.prevAddr, addr, maf.Forward, s.logAddr)
	// The wire settles at the driven value after the (possibly corrupted)
	// sampling instant, so the next transition starts from the driven value.
	s.prevAddr = addr
	return uint16(recv.Uint64()), events
}

// transmitData sends a data byte over the data bus in the given direction.
func (s *System) transmitData(data logic.Word, dir maf.Direction) (uint8, []crosstalk.Event) {
	recv, events := s.transmit(s.dataCh, s.prevData, data, dir, s.logData)
	s.prevData = data
	return uint8(recv.Uint64()), events
}

// transmit drives next over a bus holding held through ch (nil: an ideal
// bus), counts the error events, and logs the transfer when log is set.
func (s *System) transmit(ch *crosstalk.Channel, held, next logic.Word, dir maf.Direction, log bool) (logic.Word, []crosstalk.Event) {
	recv, events := next, []crosstalk.Event(nil)
	if ch != nil {
		recv, events = ch.Transmit(held, next, dir)
		s.errorCount += len(events)
	}
	if log {
		s.transfers = append(s.transfers, Transfer{Held: held, Driven: next, Received: recv, Dir: dir, Events: len(events)})
	}
	return recv, events
}

// transmitCtrl sends the command strobes over the control bus.
func (s *System) transmitCtrl(cmd uint8) (uint8, []crosstalk.Event) {
	word := logic.NewWord(uint64(cmd), CtrlBits)
	if s.ctrlCh == nil {
		s.prevCtrl = word
		return cmd, nil
	}
	recv, events := s.ctrlCh.Transmit(s.prevCtrl, word, maf.Forward)
	s.prevCtrl = word
	s.errorCount += len(events)
	return uint8(recv.Uint64()), events
}

// Read implements parwan.Bus: the CPU asserts the read strobe and drives
// addr; the addressed device drives the response byte back. All three bus
// trips are subject to crosstalk. A corrupted command redirects the
// transaction's effect: a dropped strobe leaves the data bus holding its
// last value (the CPU latches stale data), and a spurious write strobe
// makes the memory store the held data-bus value into the addressed cell.
func (s *System) Read(addr logic.Word) logic.Word {
	addrPrev, dataPrev, ctrlPrev := s.prevAddr, s.prevData, s.prevCtrl
	held := uint8(dataPrev.Uint64())
	ctrlRecv, ctrlEvents := s.transmitCtrl(CtrlRead)
	addrRecv, addrEvents := s.transmitAddr(addr)
	dev, off := s.device(addrRecv)

	var data, dataRecv uint8
	var dataEvents []crosstalk.Event
	switch {
	case ctrlRecv&CtrlWrite != 0:
		// Spurious write: the memory stores what the (undriven) data bus
		// holds; the CPU latches the same held value.
		s.store(dev, off, held)
		data, dataRecv = held, held
	case ctrlRecv&CtrlRead != 0:
		data = dev.Read(off)
		dataRecv, dataEvents = s.transmitData(logic.NewWord(uint64(data), parwan.DataBits), maf.Forward)
	default:
		// Dropped strobe: nobody drives; the CPU latches the held value.
		data, dataRecv = held, held
	}
	if s.tracing {
		s.record(Transaction{
			Write: false, Addr: uint16(addr.Uint64()), AddrRecv: addrRecv,
			Data: data, DataRecv: dataRecv,
			AddrPrev: uint16(addrPrev.Uint64()), DataPrev: held,
			Ctrl: CtrlRead, CtrlRecv: ctrlRecv, CtrlPrev: uint8(ctrlPrev.Uint64()),
			AddrEvents: addrEvents, DataEvents: dataEvents, CtrlEvents: ctrlEvents,
		})
	}
	s.seq++
	return logic.NewWord(uint64(dataRecv), parwan.DataBits)
}

// Write implements parwan.Bus: the CPU asserts the write strobe and drives
// addr and data toward the memory side. A corrupted command loses the
// store: with the write strobe dropped the memory ignores the transfer
// (whether or not it misreads a read strobe).
func (s *System) Write(addr, data logic.Word) {
	addrPrev, dataPrev, ctrlPrev := s.prevAddr, s.prevData, s.prevCtrl
	ctrlRecv, ctrlEvents := s.transmitCtrl(CtrlWrite)
	addrRecv, addrEvents := s.transmitAddr(addr)
	dataRecv, dataEvents := s.transmitData(data, maf.Reverse)
	dev, off := s.device(addrRecv)
	if ctrlRecv&CtrlWrite != 0 {
		s.store(dev, off, dataRecv)
	}
	if s.tracing {
		s.record(Transaction{
			Write: true, Addr: uint16(addr.Uint64()), AddrRecv: addrRecv,
			Data: uint8(data.Uint64()), DataRecv: dataRecv,
			AddrPrev: uint16(addrPrev.Uint64()), DataPrev: uint8(dataPrev.Uint64()),
			Ctrl: CtrlWrite, CtrlRecv: ctrlRecv, CtrlPrev: uint8(ctrlPrev.Uint64()),
			AddrEvents: addrEvents, DataEvents: dataEvents, CtrlEvents: ctrlEvents,
		})
	}
	s.seq++
}

// store delivers a bus store to a device, logging it when it lands in RAM
// and the store log is on.
func (s *System) store(dev memory.Device, off uint16, v uint8) {
	if s.logStores && dev == s.RAM {
		s.stores = append(s.stores, Store{Addr: off, Old: s.RAM.Read(off)})
	}
	dev.Write(off, v)
}

func (s *System) record(tr Transaction) {
	tr.Seq = s.seq
	s.trace = append(s.trace, tr)
}

// Trace returns the recorded transactions (nil unless Config.Trace was set).
func (s *System) Trace() []Transaction { return s.trace }

// ErrorCount returns the total number of crosstalk error events that
// occurred on either bus since construction.
func (s *System) ErrorCount() int { return s.errorCount }

// Run executes the loaded program until the CPU halts or maxSteps
// instructions retire.
func (s *System) Run(maxSteps int) (int, error) {
	return s.CPU.Run(maxSteps)
}

// Peek reads RAM directly, bypassing the busses (the external tester's
// low-speed response unload).
func (s *System) Peek(addr uint16) uint8 { return s.RAM.Read(addr) }

// Poke writes RAM directly, bypassing the busses (the external tester's
// low-speed program load).
func (s *System) Poke(addr uint16, v uint8) { s.RAM.Write(addr, v) }
