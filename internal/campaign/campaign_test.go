package campaign

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/defects"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/target"
)

// smallSpec is an address-bus campaign small enough for unit tests but with
// enough defects that cancellation can land mid-run.
func smallSpec() Spec {
	return Spec{Bus: "addr", Size: 60, Seed: 1, TargetOnly: true}
}

// holdSlot takes the only slot of m's pool (a manager built with Workers:
// 1), so a job on m stops at its next screen or defect run and stays
// mid-run for as long as the test holds the slot. release gives it back.
func holdSlot(m *Manager) (release func()) {
	m.slots <- struct{}{}
	return func() { <-m.slots }
}

// runUntil lets job, stopped on the slot the test holds (holdSlot), take
// the slot for one run at a time, each time taking it back as the run
// returns it, until the job has completed at least done defects. The test
// holds the slot again on return, so the job stays mid-run.
func runUntil(t *testing.T, m *Manager, job *Job, done int) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for job.Status().Progress.Done < done {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never completed %d defects", job.ID(), done)
		}
		// A run waiting on the slot takes it at this receive; the send
		// blocks until that run gives it back. With no run waiting, the
		// pair returns at once.
		<-m.slots
		m.slots <- struct{}{}
		runtime.Gosched()
	}
}

func waitDone(t *testing.T, job *Job) {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not reach a terminal state", job.ID())
	}
}

// series reads one unlabeled series from the manager's registry, the
// source /metrics and the CLI read.
func series(t *testing.T, m *Manager, name string) int64 {
	t.Helper()
	v, ok := m.Obs().Reg.Snapshot().Value(name, "")
	if !ok {
		t.Fatalf("registry has no series %s", name)
	}
	return int64(v)
}

// directResult runs the same campaign without the service tier.
func directResult(t *testing.T, spec Spec) (*sim.CampaignResult, int) {
	t.Helper()
	spec = spec.normalized()
	tgt, err := target.Parse(spec.Target)
	if err != nil {
		t.Fatal(err)
	}
	models, err := tgt.BusModels(spec.CthFactor)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := SpecPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewTargetRunner(tgt, plan, models)
	if err != nil {
		t.Fatal(err)
	}
	setup := models[spec.BusID()]
	lib, err := defects.Generate(setup.Nominal, setup.Thresholds,
		defects.Config{Size: spec.Size, Sigma: spec.Sigma, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Campaign(spec.BusID(), lib)
	if err != nil {
		t.Fatal(err)
	}
	return res, setup.Nominal.Width
}

func renderJSON(t *testing.T, res *sim.CampaignResult, width int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteCampaignJSON(&buf, res, width); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestServiceMatchesDirectRun(t *testing.T) {
	m := New(Config{Workers: 4})
	job, err := m.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	res, width, ok := job.Result()
	if !ok {
		t.Fatalf("job finished %s (err=%v), want done", job.Status().State, job.Err())
	}
	direct, directWidth := directResult(t, smallSpec())
	got := renderJSON(t, res, width)
	want := renderJSON(t, direct, directWidth)
	if !bytes.Equal(got, want) {
		t.Fatalf("service result differs from direct run:\nservice: %d bytes\ndirect:  %d bytes", len(got), len(want))
	}
	st := job.Status()
	if st.Progress.Done != res.Total || st.Progress.Detected != res.Detected {
		t.Fatalf("final progress %+v does not match result (%d total, %d detected)",
			st.Progress, res.Total, res.Detected)
	}
}

func TestCacheReuseAcrossJobs(t *testing.T) {
	m := New(Config{Workers: 4})
	first, err := m.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)
	if st := first.Status(); st.GoldenCached || st.LibCached {
		t.Fatalf("first job unexpectedly hit caches: %+v", st)
	}

	second, err := m.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, second)
	st := second.Status()
	if !st.GoldenCached || !st.LibCached {
		t.Fatalf("second identical job missed caches: golden=%v lib=%v", st.GoldenCached, st.LibCached)
	}
	// The golden cycles are a job fact whether the runner was built or
	// fetched.
	if want := first.Status().GoldenCycles; want == 0 || st.GoldenCycles != want {
		t.Fatalf("golden cycles %d from the cached runner, %d from the built one", st.GoldenCycles, want)
	}

	// A different seed shares the plan (golden cache) but not the library.
	reseeded := smallSpec()
	reseeded.Seed = 99
	third, err := m.Submit(reseeded)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, third)
	st = third.Status()
	if !st.GoldenCached || st.LibCached {
		t.Fatalf("reseeded job: golden=%v lib=%v, want golden hit + lib miss", st.GoldenCached, st.LibCached)
	}

	mt := m.Metrics()
	if mt.GoldenCacheHits != 2 || mt.GoldenCacheMisses != 1 {
		t.Fatalf("golden cache hits/misses = %d/%d, want 2/1", mt.GoldenCacheHits, mt.GoldenCacheMisses)
	}
	if mt.LibraryCacheHits != 1 || mt.LibraryCacheMisses != 2 {
		t.Fatalf("library cache hits/misses = %d/%d, want 1/2", mt.LibraryCacheHits, mt.LibraryCacheMisses)
	}
	// All three jobs share one generation config: one plan generation.
	hits, misses := series(t, m, "xtalkd_plan_cache_hits_total"), series(t, m, "xtalkd_plan_cache_misses_total")
	if hits != 2 || misses != 1 {
		t.Fatalf("plan cache hits/misses = %d/%d, want 2/1", hits, misses)
	}
}

// TestCancelStopsPromptly cancels a job mid-campaign while the test holds
// the pool's only slot: the job ends canceled within a second, without the
// defect run that waits for the slot, and completes no defect once the slot
// is free again.
func TestCancelStopsPromptly(t *testing.T) {
	// The test holds the one pool slot, so the job stays mid-campaign.
	m := New(Config{Workers: 1})
	release := holdSlot(m)
	spec := smallSpec()
	spec.Size = 400
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one defect complete so the cancel lands mid-campaign
	// rather than during setup.
	runUntil(t, m, job, 1)
	if err := m.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	// The job's next defect run waits for the slot the test still holds;
	// the cancel drops it.
	select {
	case <-job.Done():
	case <-time.After(time.Second):
		t.Fatalf("job is %s 1s after Cancel while a run waits for the slot", job.Status().State)
	}
	done := job.Status().Progress.Done
	// Free the slot, then take it again: a run still waiting would take it
	// first and complete its defect.
	release()
	release = holdSlot(m)
	defer release()
	st := job.Status()
	if st.State != Canceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if st.Progress.Done != done {
		t.Fatalf("%d defects done once the slot was free, %d at the cancel", st.Progress.Done, done)
	}
	if st.Progress.Done >= st.Progress.Total {
		t.Fatalf("cancelled job completed all %d defects", st.Progress.Total)
	}
	if _, _, ok := job.Result(); ok {
		t.Fatal("cancelled job has a result")
	}
}

// TestCancelDuringLibraryGeneration cancels a job while it draws its defect
// library. At a cth_factor of 50 no draw of the widebus64 bus crosses Cth,
// so generation would run through every attempt the rejection loop allows,
// tens of seconds of drawing, unless the job's context stops it. The job
// must end canceled within a second of the cancel, no drawing goroutine may
// outlive it, and the cache must keep nothing of it.
func TestCancelDuringLibraryGeneration(t *testing.T) {
	drawing := func() bool {
		buf := make([]byte, 1<<20)
		return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("defects.startNormals"))
	}
	m := New(Config{Workers: 1})
	job, err := m.Submit(Spec{Target: "widebus64", Bus: "bus", Size: 1, Seed: 1, CthFactor: 50})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); !drawing(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job is %s and never started drawing its library", job.Status().State)
		}
	}
	if err := m.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(time.Second):
		t.Fatalf("job is %s 1s after Cancel while it draws its library", job.Status().State)
	}
	if st := job.Status(); st.State != Canceled {
		t.Fatalf("state = %s (%s), want canceled", st.State, st.Error)
	}
	for deadline := time.Now().Add(time.Second); drawing(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("a drawing goroutine outlived the cancelled job")
		}
	}
	m.libs.mu.Lock()
	defer m.libs.mu.Unlock()
	if n := len(m.libs.items); n != 0 {
		t.Fatalf("the library cache holds %d libraries after a cancelled generation", n)
	}
}

func TestResumeSkipsCheckpointedDefects(t *testing.T) {
	m := New(Config{Workers: 1})
	release := holdSlot(m)
	spec := smallSpec()
	spec.Size = 400
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, m, job, 10)
	if err := m.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	release()
	waitDone(t, job)
	checkpointed := job.Status().Progress.Done
	if checkpointed == 0 {
		t.Fatal("no checkpointed outcomes before resume")
	}
	simulatedBefore := series(t, m, "xtalkd_defects_simulated_total")

	resumed, err := m.Resume(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, resumed)
	res, width, ok := resumed.Result()
	if !ok {
		t.Fatalf("resumed job finished %s (err=%v), want done", resumed.Status().State, resumed.Err())
	}
	fresh := series(t, m, "xtalkd_defects_simulated_total") - simulatedBefore
	if want := int64(res.Total) - int64(checkpointed); fresh != want {
		t.Fatalf("resume simulated %d defects, want %d (total %d - checkpointed %d)",
			fresh, want, res.Total, checkpointed)
	}
	direct, directWidth := directResult(t, spec)
	if !bytes.Equal(renderJSON(t, res, width), renderJSON(t, direct, directWidth)) {
		t.Fatal("resumed result differs from direct run")
	}

	// The progress rebuilt from the checkpoint plus the resumed run's
	// outcomes must end exactly where an uninterrupted job ends.
	whole, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, whole)
	if got, want := resumed.Status().Progress, whole.Status().Progress; !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed final progress %+v != uninterrupted %+v", got, want)
	}
}

func TestProgressIsMonotone(t *testing.T) {
	m := New(Config{Workers: 2})
	job, err := m.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	events, unsub := job.Subscribe()
	defer unsub()
	last := Progress{}
	for {
		p := <-events
		if p.Done < last.Done || p.Detected < last.Detected || p.Activations < last.Activations {
			t.Fatalf("progress regressed: %+v after %+v", p, last)
		}
		last = p
		if p.State.Terminal() {
			break
		}
	}
	if last.State != Done || last.Done != last.Total {
		t.Fatalf("final event %+v, want done with all defects", last)
	}
}

// TestEngineSpecAndCounters runs a campaign job: its rendered result must
// be byte-identical to the Execute oracle over the same plan and library,
// the job progress must attribute every defect to the screen or to
// execution, and the manager metrics must aggregate the runner's engine
// counters.
func TestEngineSpecAndCounters(t *testing.T) {
	m := New(Config{Workers: 2})
	auto, err := m.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, auto)
	st := auto.Status()
	if st.Spec.Engine != "auto" {
		t.Fatalf("normalized engine = %q, want auto", st.Spec.Engine)
	}
	if st.Progress.ReplayHits+st.Progress.Executed != st.Progress.Done {
		t.Fatalf("replay %d + executed %d != done %d",
			st.Progress.ReplayHits, st.Progress.Executed, st.Progress.Done)
	}
	mt := m.Metrics()
	if got := mt.Engine.BatchScreened + mt.Engine.Fallbacks; got != int64(st.Progress.Done) {
		t.Fatalf("engine screened %d + fallbacks %d != %d defects",
			mt.Engine.BatchScreened, mt.Engine.Fallbacks, st.Progress.Done)
	}
	if mt.Engine.BatchScreened != int64(st.Progress.ReplayHits) {
		t.Fatalf("engine screened %d, progress replay hits %d", mt.Engine.BatchScreened, st.Progress.ReplayHits)
	}
	if mt.Engine.MemoHits != 0 || mt.Engine.MemoMisses != 0 {
		t.Fatalf("engine memo traffic %d hits / %d misses, want none (production runs memoize no channel)",
			mt.Engine.MemoHits, mt.Engine.MemoMisses)
	}

	// The oracle: sim.Execute on a fresh runner over the job's cached plan
	// and library, one full execution per defect.
	r, err := m.Resolve(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	lib, _, err := m.libraryFor(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := sim.NewTargetRunner(r.Target, r.Plan, r.Models)
	if err != nil {
		t.Fatal(err)
	}
	er, err := oracle.CampaignCtx(context.Background(), r.Bus, lib, sim.CampaignOpts{Engine: sim.Execute})
	if err != nil {
		t.Fatal(err)
	}
	if got := oracle.Stats().Executes; got != int64(st.Progress.Done) {
		t.Fatalf("oracle executes = %d, want %d", got, st.Progress.Done)
	}
	ar, aw, _ := auto.Result()
	if !bytes.Equal(renderJSON(t, ar, aw), renderJSON(t, er, r.Width())) {
		t.Fatal("job result differs from the Execute oracle")
	}
}

func TestSubmitValidation(t *testing.T) {
	m := New(Config{Workers: 1})
	bad := []Spec{
		{Bus: "ctrl"},
		{Bus: "addr", Size: -1},
		{Bus: "addr", Sigma: -0.5},
		{Bus: "addr", Sigma: math.NaN()},
		{Bus: "addr", Sigma: math.Inf(1)},
		{Bus: "addr", CthFactor: math.NaN()},
		{Bus: "addr", CthFactor: math.Inf(1)},
		{Bus: "addr", CthFactor: math.Inf(-1)},
		{Bus: "addr", CthFactor: -1},
		{Bus: "addr", CthFactor: 0.5},
		{Bus: "addr", CthFactor: 1},
		{Bus: "addr", Plan: []byte(`{"programs": 42}`)},
		{Bus: "addr", Engine: "warp"},
		{Bus: "addr", Engine: "replay"},
		{Bus: "addr", Engine: "execute"},
	}
	for _, spec := range bad {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", spec)
		}
	}
}

// TestUnknownEngine pins the engine names Spec.Validate accepts: the batch
// engine's spellings. The removed engines and misspellings are refused with
// an error naming them.
func TestUnknownEngine(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"", true},
		{"auto", true},
		{"batch", true},
		{"execute", false},
		{"replay", false},
		{"warp", false},
	} {
		err := Spec{Bus: "addr", Engine: tc.name}.Validate()
		switch {
		case tc.ok && err != nil:
			t.Errorf("engine %q rejected: %v", tc.name, err)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), strconv.Quote(tc.name))):
			t.Errorf("engine %q: Validate error %v does not refuse it by name", tc.name, err)
		}
	}
}

func TestInlinePlanSubmission(t *testing.T) {
	plan, err := core.Generate(core.GenConfig{SkipDataBus: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 4})
	spec := Spec{Bus: "addr", Size: 30, Seed: 5, Plan: buf.Bytes()}
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if _, _, ok := job.Result(); !ok {
		t.Fatalf("inline-plan job finished %s (err=%v)", job.Status().State, job.Err())
	}
	// The generated-plan spec with the same shape shares the golden runner:
	// the plan hash, not the submission path, is the cache key.
	gen := Spec{Bus: "addr", Size: 30, Seed: 5, TargetOnly: true}
	job2, err := m.Submit(gen)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job2)
	if st := job2.Status(); !st.GoldenCached {
		t.Fatalf("generated plan with identical content missed the golden cache: %+v", st)
	}
}

func TestDrainRejectsNewJobs(t *testing.T) {
	m := New(Config{Workers: 2})
	job, err := m.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if job.Status().State != Done {
		t.Fatalf("drained job is %s, want done", job.Status().State)
	}
	if _, err := m.Submit(smallSpec()); err == nil {
		t.Fatal("Submit succeeded after Drain")
	}
}
