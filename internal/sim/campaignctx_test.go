package sim

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/defects"
)

func addrLib(t *testing.T, size int, seed int64) *Library {
	t.Helper()
	addr, _, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := defects.Generate(addr.Nominal, addr.Thresholds, defects.Config{Size: size, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// Library aliases defects.Library for the helper's signature brevity.
type Library = defects.Library

// TestCampaignCtxMatchesCampaign: hooks and an external limiter do not
// change the result.
func TestCampaignCtxMatchesCampaign(t *testing.T) {
	r := newRunner(t, core.GenConfig{SkipDataBus: true})
	lib := addrLib(t, 30, 7)
	want, err := r.Campaign(core.AddrBus, lib)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	seen := make(map[int]int)
	slots := make(chan struct{}, 2)
	got, err := r.CampaignCtx(context.Background(), core.AddrBus, lib, CampaignOpts{
		Workers: 3,
		Slots:   slots,
		OnOutcome: func(i int, out Outcome) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Detected != want.Detected || got.Crashed != want.Crashed || got.Total != want.Total {
		t.Fatalf("aggregates differ: %+v vs %+v", got, want)
	}
	for i := range want.Outcomes {
		if got.Outcomes[i].DefectID != want.Outcomes[i].DefectID ||
			got.Outcomes[i].Detected != want.Outcomes[i].Detected ||
			got.Outcomes[i].Activations != want.Outcomes[i].Activations {
			t.Fatalf("outcome %d differs", i)
		}
	}
	if len(seen) != len(lib.Defects) {
		t.Fatalf("OnOutcome covered %d of %d defects", len(seen), len(lib.Defects))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("OnOutcome called %d times for defect %d", n, i)
		}
	}
}

// TestCampaignCtxCancel: cancellation stops dispatch and reports the
// context error; completed outcomes were still delivered to OnOutcome.
func TestCampaignCtxCancel(t *testing.T) {
	r := newRunner(t, core.GenConfig{SkipDataBus: true})
	lib := addrLib(t, 120, 9)
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	completed := 0
	res, err := r.CampaignCtx(ctx, core.AddrBus, lib, CampaignOpts{
		Workers: 1,
		OnOutcome: func(i int, out Outcome) {
			mu.Lock()
			completed++
			if completed == 5 {
				cancel()
			}
			mu.Unlock()
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled campaign returned a result")
	}
	if completed >= len(lib.Defects) {
		t.Fatalf("cancel did not stop dispatch: %d of %d ran", completed, len(lib.Defects))
	}
	if completed < 5 {
		t.Fatalf("only %d outcomes before cancel, want >= 5", completed)
	}
}

// TestCampaignCtxSkip: checkpointed outcomes are reused, not re-simulated,
// and the aggregate equals a full run.
func TestCampaignCtxSkip(t *testing.T) {
	r := newRunner(t, core.GenConfig{SkipDataBus: true})
	lib := addrLib(t, 30, 11)
	want, err := r.Campaign(core.AddrBus, lib)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint: the first half of the outcomes.
	half := len(lib.Defects) / 2
	var mu sync.Mutex
	fresh := 0
	got, err := r.CampaignCtx(context.Background(), core.AddrBus, lib, CampaignOpts{
		Skip: func(i int) (Outcome, bool) {
			if i < half {
				return want.Outcomes[i], true
			}
			return Outcome{}, false
		},
		OnOutcome: func(i int, out Outcome) {
			if i >= half {
				mu.Lock()
				fresh++
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fresh != len(lib.Defects)-half {
		t.Fatalf("simulated %d fresh defects, want %d", fresh, len(lib.Defects)-half)
	}
	if got.Detected != want.Detected || got.Crashed != want.Crashed {
		t.Fatalf("resumed aggregate differs: %+v vs %+v", got, want)
	}
}

// TestAggregateMatchesCampaign: aggregating collected outcomes reproduces
// the campaign's own aggregation.
func TestAggregateMatchesCampaign(t *testing.T) {
	r := newRunner(t, core.GenConfig{SkipDataBus: true})
	lib := addrLib(t, 25, 13)
	want, err := r.Campaign(core.AddrBus, lib)
	if err != nil {
		t.Fatal(err)
	}
	got := Aggregate(core.AddrBus, want.Outcomes)
	if got.Detected != want.Detected || got.Crashed != want.Crashed || got.Total != want.Total {
		t.Fatalf("Aggregate differs: %+v vs %+v", got, want)
	}
	for f, n := range want.PerFault {
		if got.PerFault[f] != n {
			t.Fatalf("PerFault[%v] = %d, want %d", f, got.PerFault[f], n)
		}
	}
	for f, n := range want.UniqueByFault {
		if got.UniqueByFault[f] != n {
			t.Fatalf("UniqueByFault[%v] = %d, want %d", f, got.UniqueByFault[f], n)
		}
	}
}

// TestCampaignCtxAllSkippedTakesNoSlot: outcomes Skip supplies take no slot,
// so a campaign with nothing left to run neither screens nor waits for the
// pool. With the only token held elsewhere it returns the library's result
// at once, and the token stays where it was.
func TestCampaignCtxAllSkippedTakesNoSlot(t *testing.T) {
	r := newRunner(t, core.GenConfig{SkipDataBus: true})
	lib := addrLib(t, 30, 17)
	want, err := r.Campaign(core.AddrBus, lib)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	slots := make(chan struct{}, 1)
	slots <- struct{}{} // held elsewhere
	type result struct {
		res *CampaignResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := r.CampaignCtx(context.Background(), core.AddrBus, lib, CampaignOpts{
			Slots: slots,
			Skip:  func(i int) (Outcome, bool) { return want.Outcomes[i], true },
		})
		done <- result{res, err}
	}()
	select {
	case got := <-done:
		if got.err != nil {
			t.Fatal(got.err)
		}
		if !reflect.DeepEqual(got.res, want) {
			t.Errorf("skipped campaign %+v, want %+v", got.res, want)
		}
	case <-time.After(2 * time.Second):
		<-slots // let the campaign finish
		t.Fatal("a campaign with every outcome skipped still waits for a pool slot after 2 s")
	}
	if len(slots) != 1 {
		t.Errorf("pool holds %d tokens, want the 1 held elsewhere", len(slots))
	}
	if st := r.Stats(); st != before {
		t.Errorf("a campaign with every outcome skipped moved the engine counters: %+v, was %+v", st, before)
	}
}
