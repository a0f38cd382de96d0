package fleet

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// This file is the coordinator's federation surface: workers push their
// rendered registry exposition on every heartbeat (reusing the existing
// transport rather than opening a reverse scrape path through NAT or
// firewalls), the coordinator parses and retains the latest snapshot per
// worker, and /metrics on the coordinator serves its own registry merged
// with every worker's relabeled families — one scrape shows the fleet.

// IngestMetrics parses a worker's pushed exposition and retains it as that
// worker's federation snapshot. The worker must already be registered (the
// heartbeat handler registers before ingesting). A push is refused, and the
// previous snapshot kept, when it does not parse or when it would not
// federate with the coordinator's registry and the other retained
// snapshots, so the retained set always renders a valid /metrics.
func (c *Coordinator) IngestMetrics(url, exposition string) error {
	snap, err := obs.ParseExposition(strings.NewReader(exposition))
	if err != nil {
		return fmt.Errorf("fleet: ingest metrics from %s: %w", url, err)
	}
	// One ingest at a time, so two pushes cannot each pass the check
	// against a set the other is about to change.
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	snaps := c.workerSnapshots()
	snaps[url] = snap
	if _, err := c.federate(snaps); err != nil {
		return fmt.Errorf("fleet: ingest metrics from %s: %w", url, err)
	}
	c.mu.Lock()
	w, ok := c.workers[url]
	if ok {
		w.snapshot = snap
		w.snapshotAt = time.Now()
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: ingest metrics from unregistered worker %s", url)
	}
	return nil
}

// workerSnapshots returns the latest snapshot per scraped worker.
func (c *Coordinator) workerSnapshots() map[string]*obs.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]*obs.Snapshot, len(c.workers))
	for url, w := range c.workers {
		if w.snapshot != nil {
			out[url] = w.snapshot
		}
	}
	return out
}

// federate merges the coordinator's own registry with the worker snapshots
// relabeled into xtalkd_fleet_* families carrying a worker label. It must
// not be called with c.mu held: the registry's GaugeFuncs lock it.
func (c *Coordinator) federate(snaps map[string]*obs.Snapshot) (*obs.Snapshot, error) {
	fed, err := obs.Federate(snaps)
	if err != nil {
		return nil, err
	}
	own := c.obs.Reg.Snapshot()
	if err := own.Add(fed); err != nil {
		return nil, err
	}
	return own, nil
}

// WriteFederatedMetrics renders the fleet-wide exposition: the
// coordinator's own registry merged with every worker's relabeled snapshot.
// Workers are merged in sorted URL order, so the output is byte-stable
// regardless of heartbeat arrival order.
func (c *Coordinator) WriteFederatedMetrics(w io.Writer) error {
	fed, err := c.federate(c.workerSnapshots())
	if err != nil {
		return err
	}
	return fed.WritePrometheus(w)
}

// WorkerStatus is one worker's row in the fleet status snapshot. Slot,
// queue, and engine figures come from the worker's federated snapshot and
// are absent (Scraped=false) until the first heartbeat carrying metrics.
type WorkerStatus struct {
	URL             string  `json:"url"`
	Alive           bool    `json:"alive"`
	LastSeenSeconds float64 `json:"last_seen_seconds"`
	// Scraped reports whether this worker has pushed a registry snapshot;
	// ScrapeAgeSeconds is how stale that snapshot is.
	Scraped          bool             `json:"scraped"`
	ScrapeAgeSeconds float64          `json:"scrape_age_seconds,omitempty"`
	Slots            int              `json:"slots,omitempty"`
	BusySlots        int              `json:"busy_slots,omitempty"`
	QueueDepth       int              `json:"queue_depth,omitempty"`
	ShardsServed     int64            `json:"shards_served,omitempty"`
	ShardsCompleted  int64            `json:"shards_completed"`
	Failures         int64            `json:"failures"`
	Engines          map[string]int64 `json:"engines,omitempty"`
}

// FleetStatus is the machine-readable /fleet/status document.
type FleetStatus struct {
	Workers        []WorkerStatus `json:"workers"`
	WorkersAlive   int            `json:"workers_alive"`
	ShardsInflight int64          `json:"shards_inflight"`
	Campaigns      int64          `json:"campaigns"`
	QueueDepth     int            `json:"queue_depth"`
	Alerts         map[string]int `json:"alerts,omitempty"`
}

// FleetStatus snapshots the whole fleet: per-worker liveness, scrape
// staleness, slot pool and queue depth (from the federated snapshots), and
// the coordinator's alert summary.
func (c *Coordinator) FleetStatus() FleetStatus {
	now := time.Now()
	type row struct {
		info       WorkerInfo
		snap       *obs.Snapshot
		snapshotAt time.Time
	}
	c.mu.Lock()
	rows := make([]row, 0, len(c.workers))
	for _, w := range c.workers {
		rows = append(rows, row{
			info: WorkerInfo{
				URL:      w.url,
				Alive:    c.aliveLocked(w),
				LastSeen: w.lastSeen,
				Shards:   w.shards.Load(),
				Failures: w.failures.Load(),
			},
			snap:       w.snapshot,
			snapshotAt: w.snapshotAt,
		})
	}
	c.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].info.URL < rows[j].info.URL })

	st := FleetStatus{
		Workers:        make([]WorkerStatus, 0, len(rows)),
		ShardsInflight: c.shardsInflight.Value(),
		Campaigns:      c.campaigns.Value(),
		Alerts:         c.obs.SLO.Summary(),
	}
	for _, r := range rows {
		ws := WorkerStatus{
			URL:             r.info.URL,
			Alive:           r.info.Alive,
			LastSeenSeconds: now.Sub(r.info.LastSeen).Seconds(),
			ShardsCompleted: r.info.Shards,
			Failures:        r.info.Failures,
		}
		if r.info.Alive {
			st.WorkersAlive++
		}
		if r.snap != nil {
			ws.Scraped = true
			ws.ScrapeAgeSeconds = now.Sub(r.snapshotAt).Seconds()
			if v, ok := r.snap.Value("xtalkd_workers", ""); ok {
				ws.Slots = int(v)
			}
			if v, ok := r.snap.Value("xtalkd_workers_busy", ""); ok {
				ws.BusySlots = int(v)
			}
			if v, ok := r.snap.Value("xtalkd_jobs_pending", ""); ok {
				ws.QueueDepth = int(v)
				st.QueueDepth += int(v)
			}
			if v, ok := r.snap.Value("xtalkd_fleet_shards_served_total", ""); ok {
				ws.ShardsServed = int64(v)
			}
			for name, fam := range r.snap.Families {
				if !strings.HasPrefix(name, "xtalkd_engine_") {
					continue
				}
				if sv, ok := fam.Series[""]; ok && sv.Hist == nil {
					if ws.Engines == nil {
						ws.Engines = make(map[string]int64)
					}
					key := strings.TrimSuffix(strings.TrimPrefix(name, "xtalkd_engine_"), "_total")
					ws.Engines[key] = int64(sv.Value)
				}
			}
		}
		st.Workers = append(st.Workers, ws)
	}
	return st
}
