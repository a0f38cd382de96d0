package soc

import (
	"fmt"
	"testing"

	"repro/internal/crosstalk"
	"repro/internal/maf"
)

// ctrlChannels builds a defective 2-wire control channel (victim wire's
// coupling scaled above threshold).
func ctrlChannel(t *testing.T, victim int, factor float64) *crosstalk.Channel {
	t.Helper()
	nom := crosstalk.Nominal(CtrlBits)
	th, err := crosstalk.DeriveThresholds(nom, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := nom.Clone()
	scale := factor * th.Cth / p.NetCoupling(victim)
	for j := 0; j < CtrlBits; j++ {
		if j != victim {
			p.Cc[victim][j] *= scale
			p.Cc[j][victim] *= scale
		}
	}
	ch, err := crosstalk.NewChannel(p, th)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestCorruptedIncludesCtrlEvents: a transaction whose only error events are
// on the control bus must still report Corrupted.
func TestCorruptedIncludesCtrlEvents(t *testing.T) {
	tr := Transaction{CtrlEvents: []crosstalk.Event{{Wire: 0, Kind: maf.RisingDelay}}}
	if !tr.Corrupted() {
		t.Error("transaction with only control-bus events reports Corrupted() == false")
	}
	if (Transaction{}).Corrupted() {
		t.Error("clean transaction reports Corrupted() == true")
	}
}

// TestCtrlPrevRecorded checks the trace records the command previously held
// on the control bus: CtrlRead initially (the power-on hold value), then the
// previous transaction's command — and that a defective control channel's
// events land in CtrlEvents where Corrupted can see them.
func TestCtrlPrevRecorded(t *testing.T) {
	s, err := New(Config{CtrlChannel: ctrlChannel(t, 0, 1.3), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	s.LoadImage(assemble(t, `
		lda 1:00
		sta 2:00
	halt:	jmp halt
		.org 1:00
		.byte 0x55
	`))
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	trace := s.Trace()
	if len(trace) == 0 {
		t.Fatal("no trace recorded")
	}
	if trace[0].CtrlPrev != CtrlRead {
		t.Errorf("first transaction CtrlPrev = %02b, want the power-on hold %02b",
			trace[0].CtrlPrev, CtrlRead)
	}
	sawCtrlOnly := false
	for i, tr := range trace {
		if i > 0 && tr.CtrlPrev != trace[i-1].Ctrl {
			t.Errorf("transaction %d: CtrlPrev = %02b, want previous command %02b",
				i, tr.CtrlPrev, trace[i-1].Ctrl)
		}
		if len(tr.CtrlEvents) > 0 {
			if len(tr.AddrEvents) != 0 || len(tr.DataEvents) != 0 {
				t.Errorf("transaction %d: ideal addr/data busses produced events", i)
			}
			if !tr.Corrupted() {
				t.Errorf("transaction %d: control-bus events but Corrupted() == false", i)
			}
			sawCtrlOnly = true
		}
	}
	if !sawCtrlOnly {
		t.Error("defective control channel produced no control-bus events (test is vacuous)")
	}
	if s.ErrorCount() == 0 {
		t.Error("defective control channel produced zero error count")
	}
}

// TestResetReuseMatchesFresh: running a program on a Reset-and-reloaded
// system with swapped channels must be indistinguishable from running it on
// a freshly constructed system — the invariant the simulator's execution-rig
// pooling rests on.
func TestResetReuseMatchesFresh(t *testing.T) {
	prog := assemble(t, `
		lda 1:00
		cma
		sta 2:00
	halt:	jmp halt
		.org 1:00
		.byte 0x0F
	`)
	run := func(s *System) (uint8, int, uint64, uint64) {
		if _, err := s.Run(200); err != nil {
			t.Fatal(err)
		}
		if !s.CPU.Halted() {
			t.Fatal("did not halt")
		}
		return s.Peek(0x200), s.ErrorCount(), s.CPU.Cycles, s.CPU.Steps
	}

	addrCh, dataCh := channels(t, "data", 3, 1.3)
	fresh, err := New(Config{AddrChannel: addrCh, DataChannel: dataCh, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	fresh.LoadImage(prog)
	wantMem, wantErrs, wantCycles, wantSteps := run(fresh)
	wantSeq := fresh.Seq()

	// Dirty a reusable system with a different program on nominal channels,
	// then rebuild the defective configuration via Reset + SetChannels +
	// LoadBytes.
	nomAddr, nomData := channels(t, "", 0, 0)
	reused, err := New(Config{AddrChannel: nomAddr, DataChannel: nomData, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	reused.LoadImage(assemble(t, `
		lda 1:00
		sta 3:00
	halt:	jmp halt
		.org 1:00
		.byte 0xAA
	`))
	if _, err := reused.Run(200); err != nil {
		t.Fatal(err)
	}

	addrCh2, dataCh2 := channels(t, "data", 3, 1.3)
	if err := reused.SetChannels(addrCh2, dataCh2, nil); err != nil {
		t.Fatal(err)
	}
	reused.Reset()
	reused.LoadBytes(prog.Bytes())
	if reused.Seq() != 0 || reused.ErrorCount() != 0 || len(reused.Trace()) != 0 {
		t.Fatalf("Reset left residue: seq=%d errors=%d trace=%d",
			reused.Seq(), reused.ErrorCount(), len(reused.Trace()))
	}
	if reused.CPU.Cycles != 0 || reused.CPU.Steps != 0 {
		t.Fatalf("Reset left CPU counters: cycles=%d steps=%d", reused.CPU.Cycles, reused.CPU.Steps)
	}
	gotMem, gotErrs, gotCycles, gotSteps := run(reused)
	if gotMem != wantMem || gotErrs != wantErrs || gotCycles != wantCycles || gotSteps != wantSteps {
		t.Errorf("reused run (mem=%02x errs=%d cycles=%d steps=%d) != fresh (mem=%02x errs=%d cycles=%d steps=%d)",
			gotMem, gotErrs, gotCycles, gotSteps, wantMem, wantErrs, wantCycles, wantSteps)
	}
	if reused.Seq() != wantSeq {
		t.Errorf("reused Seq() = %d, want %d", reused.Seq(), wantSeq)
	}

	if err := reused.SetChannels(ctrlChannel(t, 0, 1.3), nil, nil); err == nil {
		t.Error("SetChannels accepted a 2-wire channel as the address bus")
	}
}

// TestSetHeld checks the forced hold values become the prev side of the next
// transitions, which is what lets execution resume from a mid-program
// snapshot.
func TestSetHeld(t *testing.T) {
	addrCh, dataCh := channels(t, "", 0, 0)
	s, err := New(Config{AddrChannel: addrCh, DataChannel: dataCh, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	s.LoadImage(assemble(t, `
		.org 0:40
		lda 1:00
	halt:	jmp halt
		.org 1:00
		.byte 0x42
	`))
	s.CPU.PC = 0x040
	s.SetHeld(0x123, 0xAB, CtrlWrite)
	if _, err := s.Run(50); err != nil {
		t.Fatal(err)
	}
	tr := s.Trace()
	if len(tr) == 0 {
		t.Fatal("no trace")
	}
	if tr[0].AddrPrev != 0x123 || tr[0].DataPrev != 0xAB || tr[0].CtrlPrev != CtrlWrite {
		t.Errorf("first transaction prev = (%03x, %02x, %02b), want (123, ab, %02b)",
			tr[0].AddrPrev, tr[0].DataPrev, tr[0].CtrlPrev, CtrlWrite)
	}
	last := tr[len(tr)-1]
	if a, d, c := s.Held(); a != last.Addr || d != last.Data || c != last.Ctrl {
		t.Errorf("Held() = (%03x, %02x, %02b), want the last transaction's (%03x, %02x, %02b)",
			a, d, c, last.Addr, last.Data, last.Ctrl)
	}
}

// TestStoreLog: while the store log is on, every bus store to RAM is logged
// with the value it overwrote, and Poke is not; TakeStores empties the log,
// and switching the log off stops it.
func TestStoreLog(t *testing.T) {
	s := NewIdeal()
	s.LoadImage(assemble(t, `
		lda 1:00
		sta 2:00
		sta 2:01
		lda 1:01
		sta 2:00
	halt:	jmp halt
		.org 1:00
		.byte 0x11, 0x22
		.org 2:00
		.byte 0x33, 0x44
	`))
	s.LogStores(true)
	s.Poke(0x210, 0x55)
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if got := s.TakeStores(); len(got) != 1 || got[0] != (Store{Addr: 0x200, Old: 0x33}) {
		t.Fatalf("after lda, sta: stores %v, want [{200 33}]", got)
	}
	if _, err := s.Run(3); err != nil {
		t.Fatal(err)
	}
	want := []Store{{Addr: 0x201, Old: 0x44}, {Addr: 0x200, Old: 0x11}}
	if got := s.TakeStores(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stores %v, want %v", got, want)
	}
	s.LogStores(false)
	s.Reset()
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := s.TakeStores(); len(got) != 0 {
		t.Errorf("log off, still logged %v", got)
	}
}
