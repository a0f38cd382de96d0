package defects_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/defects"
	"repro/internal/infield"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/target"
)

// TestLibraryBatchLazyAndKept pins Library.Batch itself: nothing is built
// before the first call, a cancelled build (also one waiting for the pool's
// slots, and a cancelled caller that finds that build in flight) returns
// context.Canceled and keeps nothing, concurrent first calls share one build on a two-token
// pool, other thresholds get a fresh batch that is never kept, and a
// changed defect list gets a batch over the new list.
func TestLibraryBatchLazyAndKept(t *testing.T) {
	nom := crosstalk.Nominal(12)
	th, err := crosstalk.DeriveThresholds(nom, 0)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := defects.Generate(nom, th, defects.Config{Size: 70, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if defects.KeptBatch(lib) != nil {
		t.Fatal("a fresh library already keeps a batch")
	}

	pool := make(chan struct{}, 2)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lib.Batch(cancelled, th, 2, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v, want context.Canceled", err)
	}
	// With the pool busy elsewhere, a build waits for a slot until its
	// context is cancelled, and a caller that finds it in flight waits for
	// it until the caller's own context is.
	pool <- struct{}{}
	pool <- struct{}{}
	waiting, stop := context.WithCancel(context.Background())
	built := make(chan error, 1)
	go func() {
		_, err := lib.Batch(waiting, th, 2, pool)
		built <- err
	}()
	for deadline := time.Now().Add(time.Minute); !defects.BuildInFlight(lib); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the build never started")
		}
	}
	if _, err := lib.Batch(cancelled, th, 2, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller of a build in flight returned %v, want context.Canceled", err)
	}
	stop()
	if err := <-built; !errors.Is(err, context.Canceled) {
		t.Fatalf("build cancelled while waiting for a slot returned %v, want context.Canceled", err)
	}
	if len(pool) != 2 {
		t.Fatalf("pool holds %d tokens after the cancelled builds, want the 2 held elsewhere", len(pool))
	}
	<-pool
	<-pool
	if defects.KeptBatch(lib) != nil {
		t.Fatal("a cancelled build left a batch in the library")
	}

	batches := make([]*crosstalk.Batch, 6)
	var wg sync.WaitGroup
	for i := range batches {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := lib.Batch(context.Background(), th, 2, pool)
			if err != nil {
				t.Error(err)
			}
			batches[i] = b
		}(i)
	}
	wg.Wait()
	kept := defects.KeptBatch(lib)
	for i, b := range batches {
		if b == nil || b != kept {
			t.Fatalf("caller %d got batch %p, the library keeps %p", i, b, kept)
		}
	}
	if kept.Len() != len(lib.Defects) {
		t.Fatalf("kept batch holds %d sets, library %d", kept.Len(), len(lib.Defects))
	}

	other, err := crosstalk.DeriveThresholds(nom, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	o1, err := lib.Batch(context.Background(), other, 2, pool)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := lib.Batch(context.Background(), other, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o1 == kept || o2 == kept || o1 == o2 {
		t.Fatal("a batch for other thresholds was shared or kept")
	}
	if defects.KeptBatch(lib) != kept {
		t.Fatal("asking for other thresholds replaced the kept batch")
	}

	lib.Defects = lib.Defects[:40]
	b, err := lib.Batch(context.Background(), th, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b == kept || b.Len() != 40 || defects.KeptBatch(lib) != b {
		t.Fatalf("after the defect list changed: batch of %d sets (kept one reused: %v)", b.Len(), b == kept)
	}
}

// TestLibraryBatchSharedAcrossCampaigns runs two campaigns and an in-field
// schedule (every slice's campaign on its own sub-plan runner, as an
// in-field job runs them) over one library: the first campaign builds the
// library's batch, and every later campaign and slice screens with that
// same *Batch.
func TestLibraryBatchSharedAcrossCampaigns(t *testing.T) {
	r, err := campaign.Resolve(campaign.Spec{Type: campaign.TypeInfield, Bus: "addr", Size: 100, Seed: 3, TargetOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	lib, err := r.Library(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	runner, err := sim.NewTargetRunner(r.Target, r.Plan, r.Models)
	if err != nil {
		t.Fatal(err)
	}
	var kept *crosstalk.Batch
	check := func(what string) {
		t.Helper()
		b := defects.KeptBatch(lib)
		switch {
		case b == nil:
			t.Fatalf("%s: the library keeps no batch", what)
		case kept == nil:
			kept = b
		case b != kept:
			t.Fatalf("%s: the library's batch was rebuilt", what)
		}
	}
	ctx := context.Background()
	for i, workers := range []int{1, 3} {
		if _, err := runner.CampaignCtx(ctx, r.Bus, lib, sim.CampaignOpts{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("campaign %d", i+1))
	}
	m, err := r.Manifest(func(s int) uint64 { return runner.Golden(s).Cycles })
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Slices) < 2 {
		t.Fatalf("manifest has %d slices; the test needs a schedule", len(m.Slices))
	}
	for _, sl := range m.Slices {
		sub, err := infield.SubPlan(r.Plan, sl)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := sim.NewTargetRunner(r.Target, sub, r.Models)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sr.CampaignCtx(ctx, r.Bus, lib, sim.CampaignOpts{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("slice %d", sl.Index))
	}
	if b, err := lib.Batch(ctx, lib.Thresholds, 1, nil); err != nil || b != kept {
		t.Fatalf("Batch returned %p (err %v), the campaigns screened with %p", b, err, kept)
	}
}

// TestLibraryBatchOtherThresholds runs a campaign on a runner whose
// thresholds differ from the library's: it must never screen with the
// library's batch (which would clear defects that fire under the runner's
// lower threshold), so its report equals an Execute campaign under the
// runner's thresholds, and the library keeps only the batch its own
// thresholds' campaign built.
func TestLibraryBatchOtherThresholds(t *testing.T) {
	tgt := target.Parwan()
	own, err := tgt.BusModels(0)
	if err != nil {
		t.Fatal(err)
	}
	lower, err := tgt.BusModels(1.3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tgt.Generate(target.GenSpec{OnlyChannel: "data"})
	if err != nil {
		t.Fatal(err)
	}
	bus := core.DataBus
	setup := own[bus]
	lib, err := defects.Generate(setup.Nominal, setup.Thresholds, defects.Config{Size: 150, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	reportOf := func(models []target.BusModel, eng sim.Engine) ([]byte, *sim.Runner) {
		t.Helper()
		r, err := sim.NewTargetRunner(tgt, plan, models)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.CampaignCtx(context.Background(), bus, lib, sim.CampaignOpts{Engine: eng, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteCampaignJSON(&buf, res, setup.Nominal.Width); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), r
	}

	got, r := reportOf(lower, sim.Batch)
	if r.Stats().BatchSweeps == 0 {
		t.Fatal("the lower-threshold runner did not screen")
	}
	if defects.KeptBatch(lib) != nil {
		t.Fatal("a campaign under other thresholds left its batch in the library")
	}
	want, _ := reportOf(lower, sim.Execute)
	if !bytes.Equal(got, want) {
		t.Fatal("lower-threshold Batch campaign differs from Execute under the same thresholds")
	}
	ownReport, _ := reportOf(own, sim.Batch)
	if bytes.Equal(ownReport, want) {
		t.Fatal("the two thresholds give the same report; the test cannot tell the batches apart")
	}
	kept := defects.KeptBatch(lib)
	if kept == nil {
		t.Fatal("the library's own-threshold campaign kept no batch")
	}
	if again, _ := reportOf(lower, sim.Batch); !bytes.Equal(again, want) {
		t.Fatal("lower-threshold Batch campaign differs from Execute once the library keeps a batch")
	}
	if defects.KeptBatch(lib) != kept {
		t.Fatal("a campaign under other thresholds replaced the library's batch")
	}
}
