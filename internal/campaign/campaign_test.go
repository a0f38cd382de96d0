package campaign

import (
	"bytes"
	"context"
	"errors"
	"reflect"
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

func TestCancelStopsPromptly(t *testing.T) {
	// One worker and the execute engine (no replay shortcut) make the run
	// long enough to cancel mid-campaign.
	m := New(Config{Workers: 1})
	spec := smallSpec()
	spec.Size = 400
	spec.Engine = "execute"
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	events, unsub := job.Subscribe()
	defer unsub()
	// Wait until at least one defect has completed so the cancel lands
	// mid-campaign rather than during setup.
	deadline := time.After(time.Minute)
	for started := false; !started; {
		select {
		case p := <-events:
			started = p.Done > 0
		case <-deadline:
			t.Fatal("campaign never made progress")
		}
	}
	if err := m.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	st := job.Status()
	if st.State != Canceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if st.Progress.Done >= st.Progress.Total {
		t.Fatalf("cancelled job completed all %d defects", st.Progress.Total)
	}
	if _, _, ok := job.Result(); ok {
		t.Fatal("cancelled job has a result")
	}
}

func TestResumeSkipsCheckpointedDefects(t *testing.T) {
	m := New(Config{Workers: 1})
	spec := smallSpec()
	spec.Size = 400
	spec.Engine = "execute"
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	events, unsub := job.Subscribe()
	for {
		p := <-events
		if p.Done >= 10 {
			break
		}
	}
	unsub()
	if err := m.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
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

// TestEngineSpecAndCounters submits the same campaign under the default and
// execute engines: the rendered results must be byte-identical, the job
// progress must attribute every defect to the screen or to execution, and
// the manager metrics must aggregate the runner's engine counters.
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
	if mt.Engine.Executes != 0 || mt.Engine.DegradedExecutes != 0 {
		t.Fatalf("auto campaign counted executes=%d degraded=%d", mt.Engine.Executes, mt.Engine.DegradedExecutes)
	}
	if mt.Engine.MemoHits != 0 || mt.Engine.MemoMisses != 0 {
		t.Fatalf("engine memo traffic %d hits / %d misses, want none (production runs memoize no channel)",
			mt.Engine.MemoHits, mt.Engine.MemoMisses)
	}

	spec := smallSpec()
	spec.Engine = "execute"
	exec, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exec)
	est := exec.Status()
	if est.Progress.ReplayHits != 0 || est.Progress.Executed != est.Progress.Done {
		t.Fatalf("execute progress %+v, want all defects executed", est.Progress)
	}
	if got := m.Metrics().Engine.Executes; got != int64(est.Progress.Done) {
		t.Fatalf("engine executes = %d, want %d", got, est.Progress.Done)
	}
	ar, aw, _ := auto.Result()
	er, ew, _ := exec.Result()
	if !bytes.Equal(renderJSON(t, ar, aw), renderJSON(t, er, ew)) {
		t.Fatal("auto and execute engine results differ")
	}
}

func TestSubmitValidation(t *testing.T) {
	m := New(Config{Workers: 1})
	bad := []Spec{
		{Bus: "ctrl"},
		{Bus: "addr", Size: -1},
		{Bus: "addr", Sigma: -0.5},
		{Bus: "addr", CthFactor: -1},
		{Bus: "addr", CthFactor: 0.5},
		{Bus: "addr", CthFactor: 1},
		{Bus: "addr", Plan: []byte(`{"programs": 42}`)},
		{Bus: "addr", Engine: "warp"},
		{Bus: "addr", Engine: "replay"},
	}
	for _, spec := range bad {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", spec)
		}
	}
}

// TestUnknownEngine pins the typed engine rejection through Spec.Validate:
// removed and misspelled engines alike surface as *sim.UnknownEngineError,
// while every kept spelling validates.
func TestUnknownEngine(t *testing.T) {
	for _, name := range []string{"replay", "warp"} {
		err := Spec{Bus: "addr", Engine: name}.Validate()
		var uee *sim.UnknownEngineError
		if !errors.As(err, &uee) || uee.Name != name {
			t.Errorf("engine %q: Validate error %v (%T) is not an UnknownEngineError naming it", name, err, err)
		}
	}
	for _, name := range []string{"", "auto", "batch", "execute"} {
		if err := (Spec{Bus: "addr", Engine: name}).Validate(); err != nil {
			t.Errorf("engine %q rejected: %v", name, err)
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
