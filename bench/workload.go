package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/report"
	"repro/internal/sim"
)

// scale sets the defect-library sizes. paperScale is the paper's §5 set-up
// (1000 defects per bus); the widebus64 library is smaller because every
// job generates a fresh one.
type scale struct {
	e5   int // defects per E5 bus library
	wide int // defects per widebus64 library
}

var paperScale = scale{e5: 1000, wide: 200}

// workload is one traffic mix: a closed loop of jobs from a single client.
// Job i runs spec(seed, scale, i); jobs whose index differs by a multiple of
// kinds run the same spec, except on freshLibs workloads, where every job
// draws a new library seed.
type workload struct {
	name      string
	why       string
	kinds     int
	freshLibs bool
	fleet     bool // through fleet.Coordinator instead of campaign.Manager
	paper     bool // Parwan E5: the paper's reference values apply
	listed    bool // in BENCHMARK.json, so every comparison runs it
	spec      func(seed int64, sc scale, i int) campaign.Spec
}

// e5Spec alternates the E5 address- and data-bus campaigns.
func e5Spec(seed int64, sc scale, i int) campaign.Spec {
	return campaign.Spec{Bus: [2]string{"addr", "data"}[i%2], Size: sc.e5,
		Seed: libSeed(seed, i%2), Engine: "batch"}
}

// fleet-e5 is not listed in BENCHMARK.json: at about 0.55 s a job it gets
// too few jobs into a run to hold its medians within the bounds on a busy
// host, and a fourth workload would leave too little time for each run.
var workloads = []workload{
	{
		name: "e5-warm", kinds: 2, paper: true, listed: true, spec: e5Spec,
		why: "Parwan E5 addr/data jobs through the Manager with warm caches: resumed CPU execution and per-job plan regeneration dominate",
	},
	{
		name: "widebus64", kinds: 1, freshLibs: true, listed: true,
		why: "64-wire scripted bus with a fresh library seed per job: no CPU, a library-cache miss and defect generation on every job",
		spec: func(seed int64, sc scale, i int) campaign.Spec {
			return campaign.Spec{Target: "widebus64", Bus: "bus", Size: sc.wide,
				Seed: libSeed(seed, 100+i), Engine: "batch"}
		},
	},
	{
		name: "infield-e5", kinds: 1, paper: true, listed: true,
		why: "E5 addr in-field schedule at the finest manifest: the per-slice latency the 150 ms objective is about",
		spec: func(seed int64, sc scale, i int) campaign.Spec {
			return campaign.Spec{Type: campaign.TypeInfield, Bus: "addr", Size: sc.e5,
				Seed: libSeed(seed, 0), Engine: "batch"}
		},
	},
	{
		name: "fleet-e5", kinds: 2, fleet: true, paper: true, spec: e5Spec,
		why: "E5 addr/data through a coordinator and two HTTP workers: shard planning, transfer, per-shard set-up and merge",
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// libSeed derives a library seed from the benchmark seed (splitmix64), so
// neighbouring benchmark seeds give unrelated libraries.
func libSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k)*0xD1B54A32D192ED03 + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64((z ^ z>>31) >> 33)
}

// jobOut is what one job returned, observed from outside.
type jobOut struct {
	res     *sim.CampaignResult
	width   int
	defects int             // defect runs the job completed
	queue   time.Duration   // Manager: Started - Submitted
	slices  []time.Duration // in-field: each slice's latency
}

// system is the program under test: a Manager, or a coordinator with its
// workers. run executes one job synchronously.
type system interface {
	run(ctx context.Context, spec campaign.Spec) (jobOut, error)
	metrics() campaign.Metrics // cache and engine counters of all its managers
	close()
}

func newSystem(w workload) system {
	if w.fleet {
		return newFleetSystem()
	}
	// The daemon's defaults: telemetry on, one pool slot per CPU.
	return &managerSystem{m: campaign.New(campaign.Config{})}
}

type managerSystem struct{ m *campaign.Manager }

func (s *managerSystem) run(_ context.Context, spec campaign.Spec) (jobOut, error) {
	job, err := s.m.Submit(spec)
	if err != nil {
		return jobOut{}, err
	}
	var marks []time.Time
	if spec.JobType() == campaign.TypeInfield {
		marks = watchSlices(job)
	} else {
		<-job.Done()
	}
	st := job.Status()
	res, width, ok := job.Result()
	if !ok {
		return jobOut{}, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	out := jobOut{res: res, width: width, defects: st.Progress.Total, queue: st.Started.Sub(st.Submitted)}
	if spec.JobType() == campaign.TypeInfield {
		n := st.Progress.Slices
		if n < 1 || len(marks) < n-1 {
			return jobOut{}, fmt.Errorf("job %s: saw %d of %d slice merges", st.ID, len(marks), n-1)
		}
		bounds := append(append([]time.Time{st.Started}, marks[:n-1]...), st.Finished)
		for k := 1; k < len(bounds); k++ {
			out.slices = append(out.slices, bounds[k].Sub(bounds[k-1]))
		}
	}
	return out, nil
}

// watchSlices waits for the job and returns the time each slice merge was
// observed (Progress.Slice incrementing), in slice order.
func watchSlices(job *campaign.Job) []time.Time {
	sub, unsub := job.Subscribe()
	defer unsub()
	done := job.Done()
	var marks []time.Time
	note := func(p campaign.Progress) {
		now := time.Now()
		for len(marks) < p.Slice {
			marks = append(marks, now) // a skipped event shares the later time
		}
	}
	for {
		select {
		case p := <-sub:
			note(p)
		case <-done:
			select {
			case p := <-sub:
				note(p)
			default:
			}
			return marks
		}
	}
}

func (s *managerSystem) metrics() campaign.Metrics { return s.m.Metrics() }
func (s *managerSystem) close()                    {}

// fleetSystem is a coordinator over two in-process HTTP workers with one
// pool slot each; MaxInFlight 2 keeps connections at the CPU count.
type fleetSystem struct {
	coord   *fleet.Coordinator
	tr      *http.Transport
	servers []*httptest.Server
	mgrs    []*campaign.Manager
	tap     atomic.Pointer[shardTap] // set while a traced job runs
}

const fleetWorkers = 2

func newFleetSystem() *fleetSystem {
	f := &fleetSystem{tr: &http.Transport{}}
	f.coord = fleet.NewCoordinator(fleet.CoordinatorConfig{MaxInFlight: 2, Client: &http.Client{Transport: f.tr}})
	for i := 0; i < fleetWorkers; i++ {
		m := campaign.New(campaign.Config{Workers: 1})
		srv := httptest.NewServer(f.wrap(i, fleet.NewWorker(m)))
		f.mgrs = append(f.mgrs, m)
		f.servers = append(f.servers, srv)
		f.coord.Register(srv.URL)
	}
	return f
}

func (f *fleetSystem) run(ctx context.Context, spec campaign.Spec) (jobOut, error) {
	res, width, _, err := f.coord.RunCampaign(ctx, spec, 0)
	if err != nil {
		return jobOut{}, err
	}
	return jobOut{res: res, width: width, defects: res.Total}, nil
}

func (f *fleetSystem) metrics() campaign.Metrics {
	var sum campaign.Metrics
	for _, m := range f.mgrs {
		x := m.Metrics()
		sum.GoldenCacheHits += x.GoldenCacheHits
		sum.GoldenCacheMisses += x.GoldenCacheMisses
		sum.LibraryCacheHits += x.LibraryCacheHits
		sum.LibraryCacheMisses += x.LibraryCacheMisses
		sum.Engine.BatchScreened += x.Engine.BatchScreened
		sum.Engine.Fallbacks += x.Engine.Fallbacks
		sum.Engine.MemoHits += x.Engine.MemoHits
		sum.Engine.MemoMisses += x.Engine.MemoMisses
	}
	return sum
}

func (f *fleetSystem) close() {
	f.tr.CloseIdleConnections()
	for _, s := range f.servers {
		s.Close()
	}
}

// shardTap collects, for one traced fleet job, when each shard was served
// and on which worker, and the response bytes.
type shardTap struct {
	wg     sync.WaitGroup // handlers still recording; the job waits on it
	mu     sync.Mutex
	served []servedShard
	bytes  int64
}

type servedShard struct {
	worker     int
	start, end time.Time
}

// wrap times and byte-counts a worker's handler while a tap is installed;
// otherwise it passes requests straight through.
func (f *fleetSystem) wrap(worker int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tap := f.tap.Load()
		if tap == nil {
			h.ServeHTTP(w, r)
			return
		}
		tap.wg.Add(1)
		defer tap.wg.Done()
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		tap.mu.Lock()
		tap.served = append(tap.served, servedShard{worker, start, end})
		tap.bytes += cw.n
		tap.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// digest is the identity of a campaign result as a user fetches it.
func digest(res *sim.CampaignResult, width int) ([32]byte, error) {
	var buf bytes.Buffer
	if err := report.WriteCampaignJSON(&buf, res, width); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// maxRSSMiB is the process's peak resident set size (Linux reports KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
