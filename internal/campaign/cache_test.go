package campaign

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/infield"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	var hits, misses, evictions obs.Counter
	c := newLRU[int, int](2, &hits, &misses, &evictions)
	val := func(v int) func() (int, error) { return func() (int, error) { return v, nil } }
	get := func(k int, build func() (int, error)) (int, bool) {
		t.Helper()
		v, hit, err := c.get(k, build)
		if err != nil {
			t.Fatal(err)
		}
		return v, hit
	}
	get(1, val(10))
	get(2, val(20))
	if v, hit := get(1, val(-1)); !hit || v != 10 {
		t.Fatalf("get(1) = %d, hit %v; want the cached 10", v, hit)
	}
	get(3, val(30)) // full: evicts 2, the least recently used
	if v, hit := get(1, val(-1)); !hit || v != 10 {
		t.Fatalf("recently used key 1 was evicted (got %d, hit %v)", v, hit)
	}
	if v, hit := get(2, val(21)); hit || v != 21 {
		t.Fatalf("get(2) = %d, hit %v; want a rebuilt 21", v, hit)
	}
	if _, _, err := c.get(4, func() (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Fatal("build error not returned")
	}
	if v, hit := get(4, val(40)); hit || v != 40 {
		t.Fatalf("a failed build was cached: get(4) = %d, hit %v", v, hit)
	}
	if hits.Value() != 2 || misses.Value() != 6 || evictions.Value() != 3 {
		t.Fatalf("hits/misses/evictions = %d/%d/%d, want 2/6/3", hits.Value(), misses.Value(), evictions.Value())
	}
}

// TestLRUConcurrentMissesKeepFirst has callers miss on one key at once:
// every one of them must get the value stored first.
func TestLRUConcurrentMissesKeepFirst(t *testing.T) {
	var hits, misses, evictions obs.Counter
	c := newLRU[string, *int](2, &hits, &misses, &evictions)
	got := make([]*int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.get("k", func() (*int, error) { return new(int), nil })
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	wg.Wait()
	for i, v := range got {
		if v != got[0] {
			t.Fatalf("caller %d got a different value than caller 0", i)
		}
	}
}

// TestCachedPlanStaysUnchanged proves that nothing a job does writes to the
// plan the cache shares between jobs: one manager runs every job type and
// a fleet shard on one generation config, and after each, and after
// SubPlan has cut every slice of the finest manifest from it, the cached
// plan keeps its hash and equals a freshly generated plan. Only the first
// job generates it.
func TestCachedPlanStaysUnchanged(t *testing.T) {
	m := New(Config{Workers: 4})
	base := smallSpec()
	fresh, err := SpecPlan(base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PlanHash(fresh)
	if err != nil {
		t.Fatal(err)
	}
	cachedPlan := func(after string) *Resolved {
		t.Helper()
		r, cached, err := resolve(base, m.plans)
		if err != nil {
			t.Fatal(err)
		}
		if !cached {
			t.Fatalf("after %s: plan not cached", after)
		}
		got, err := PlanHash(r.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || r.Hash != want {
			t.Fatalf("after %s: cached plan hashes to %s (recorded %s), want %s", after, got, r.Hash, want)
		}
		if !reflect.DeepEqual(r.Plan, fresh) {
			t.Fatalf("after %s: cached plan differs from a freshly generated one", after)
		}
		return r
	}

	for _, typ := range []string{TypeCampaign, TypeDiagnose, TypeMinimize, TypeRank, TypeInfield} {
		spec := base
		spec.Type = typ
		job, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		if st := job.Status(); st.State != Done {
			t.Fatalf("%s job finished %s (err=%v)", typ, st.State, job.Err())
		}
		cachedPlan(typ + " job")
	}

	r := cachedPlan("the jobs")
	if _, err := m.RunShard(context.Background(), r, 0, base.Size/2); err != nil {
		t.Fatal(err)
	}
	r = cachedPlan("a fleet shard")

	runner, _, err := m.runnerFor(r, r.Plan, r.Hash)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := r.Manifest(func(s int) uint64 { return runner.Golden(s).Cycles })
	if err != nil {
		t.Fatal(err)
	}
	if len(manifest.Slices) < 2 {
		t.Fatalf("finest manifest has %d slices, want several", len(manifest.Slices))
	}
	for _, sl := range manifest.Slices {
		if _, err := infield.SubPlan(r.Plan, sl); err != nil {
			t.Fatal(err)
		}
	}
	cachedPlan("SubPlan")

	if misses := series(t, m, "xtalkd_plan_cache_misses_total"); misses != 1 {
		t.Fatalf("plan generated %d times for one generation config, want once", misses)
	}
}

// TestConcurrentJobsShareCachedPlan runs jobs of every type at once on one
// cached plan, so the race detector sees any write to it. Each job's
// campaign result must equal a direct run of the same spec.
func TestConcurrentJobsShareCachedPlan(t *testing.T) {
	m := New(Config{Workers: 4})
	warm, err := m.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, warm)

	types := []string{TypeCampaign, TypeDiagnose, TypeMinimize, TypeRank, TypeInfield, TypeCampaign}
	jobs := make([]*Job, len(types))
	for i, typ := range types {
		spec := smallSpec()
		spec.Type = typ
		spec.Seed = int64(i + 2)
		if jobs[i], err = m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	for i, job := range jobs {
		waitDone(t, job)
		res, width, ok := job.Result()
		if !ok {
			t.Fatalf("%s job finished %s (err=%v)", types[i], job.Status().State, job.Err())
		}
		direct, directWidth := directResult(t, oneShot(job.Spec()))
		if !bytes.Equal(renderJSON(t, res, width), renderJSON(t, direct, directWidth)) {
			t.Fatalf("%s job's campaign result differs from a direct run", types[i])
		}
	}
	hits, misses := series(t, m, "xtalkd_plan_cache_hits_total"), series(t, m, "xtalkd_plan_cache_misses_total")
	if misses != 1 || hits != int64(len(types)) {
		t.Fatalf("plan cache hits/misses = %d/%d, want %d/1", hits, misses, len(types))
	}
}

// TestNewManagerStartsCold pins that the plan cache belongs to a manager,
// not to the package: a second manager generates the plan again.
func TestNewManagerStartsCold(t *testing.T) {
	for i := 0; i < 2; i++ {
		m := New(Config{Workers: 2})
		job, err := m.Submit(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		hits, misses := series(t, m, "xtalkd_plan_cache_hits_total"), series(t, m, "xtalkd_plan_cache_misses_total")
		if hits != 0 || misses != 1 {
			t.Fatalf("manager %d: plan cache hits/misses = %d/%d, want 0/1", i, hits, misses)
		}
	}
}

// TestPlanCacheBounded resolves more distinct generation configs than the
// cache holds; max_sessions comes from untrusted specs, so the cache must
// evict instead of growing.
func TestPlanCacheBounded(t *testing.T) {
	m := New(Config{Workers: 1})
	const extra = 3
	for n := 1; n <= planCacheSize+extra; n++ {
		spec := Spec{Target: "widebus16", Bus: "bus", Size: 10, Seed: 1, MaxSessions: n}
		if _, cached, err := resolve(spec, m.plans); err != nil || cached {
			t.Fatalf("max_sessions %d: cached %v, err %v; want a fresh generation", n, cached, err)
		}
	}
	if got := m.plans.lru.evictions.Value(); got != extra {
		t.Fatalf("%d plan evictions, want %d", got, extra)
	}
	if len(m.plans.lru.items) != planCacheSize {
		t.Fatalf("plan cache holds %d entries, want its bound %d", len(m.plans.lru.items), planCacheSize)
	}
}

// TestLibraryCacheEviction submits more distinct library seeds than the
// library cache holds: each extra seed evicts one library, and a resubmitted
// evicted spec regenerates its library to a byte-identical result.
func TestLibraryCacheEviction(t *testing.T) {
	m := New(Config{Workers: 4})
	spec := func(seed int64) Spec {
		s := smallSpec()
		s.Size, s.Seed = 20, seed
		return s
	}
	run := func(seed int64) (*Job, []byte) {
		t.Helper()
		job, err := m.Submit(spec(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		res, width, ok := job.Result()
		if !ok {
			t.Fatalf("seed %d: job finished %s (err=%v)", seed, job.Status().State, job.Err())
		}
		return job, renderJSON(t, res, width)
	}
	const extra = 2
	_, first := run(1)
	for seed := int64(2); seed <= libraryCacheSize+extra; seed++ {
		run(seed)
	}
	if got := m.libs.evictions.Value(); got != extra {
		t.Fatalf("%d library evictions, want %d", got, extra)
	}
	again, bytesAgain := run(1) // the least recently used seed, evicted first
	if again.Status().LibCached {
		t.Fatal("an evicted library was served from the cache")
	}
	if !bytes.Equal(bytesAgain, first) {
		t.Fatal("a resubmitted evicted spec rendered a different result")
	}
}

// TestFleetManagerBuildsOnlyWhatJobsRead runs every job type on a manager
// whose campaigns go to a fleet (here a direct run): it builds the golden
// runner only for the infield manifest's cycles and the library only for
// diagnose and rank analysis, and every job still finishes.
func TestFleetManagerBuildsOnlyWhatJobsRead(t *testing.T) {
	fleet := func(ctx context.Context, spec Spec) (*sim.CampaignResult, error) {
		r, err := Resolve(spec)
		if err != nil {
			return nil, err
		}
		lib, err := r.Library()
		if err != nil {
			return nil, err
		}
		runner, err := sim.NewTargetRunner(r.Target, r.Plan, r.Models)
		if err != nil {
			return nil, err
		}
		return runner.CampaignCtx(ctx, r.Bus, lib, sim.CampaignOpts{})
	}
	wide := Spec{Target: "widebus16", Bus: "bus", Size: 40, Seed: 3}
	for _, tc := range []struct {
		typ                 string
		goldenMiss, libMiss int64
	}{
		{TypeCampaign, 0, 0},
		{TypeMinimize, 0, 0},
		{TypeInfield, 1, 0},
		{TypeDiagnose, 0, 1},
		{TypeRank, 0, 1},
	} {
		m := New(Config{Fleet: fleet})
		spec := wide
		spec.Type = tc.typ
		job, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		if st := job.Status(); st.State != Done || st.Progress.Total == 0 {
			t.Fatalf("%s job finished %s (total %d): %s", tc.typ, st.State, st.Progress.Total, st.Error)
		}
		mt := m.Metrics()
		if mt.GoldenCacheMisses != tc.goldenMiss || mt.LibraryCacheMisses != tc.libMiss {
			t.Errorf("%s job: golden/library misses = %d/%d, want %d/%d", tc.typ,
				mt.GoldenCacheMisses, mt.LibraryCacheMisses, tc.goldenMiss, tc.libMiss)
		}
	}
}
