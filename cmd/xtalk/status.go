package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/report"
)

// The status subcommand renders a live daemon's health at a glance: the
// /healthz document, the SLO alert list (/alerts), the fleet federation
// summary (/fleet/status, coordinators only), and per-job progress from
// the campaign list (every role runs jobs). Endpoints a role does not
// serve (a standalone node or a worker has no /fleet/status) are skipped,
// so one invocation works against any role.
func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	daemon := fs.String("daemon", "http://localhost:8080", "base URL of the xtalkd daemon to query")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimRight(*daemon, "/")
	client := &http.Client{Timeout: *timeout}

	// get decodes one endpoint into v; a 404 reports ok=false with no error
	// (the role does not serve it), anything else non-2xx is an error.
	get := func(path string, v any) (bool, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return false, nil
		}
		if resp.StatusCode != http.StatusOK {
			return false, fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return true, json.NewDecoder(resp.Body).Decode(v)
	}

	var health campaign.Health
	ok, err := get("/healthz", &health)
	if err != nil {
		return fmt.Errorf("daemon %s unreachable: %w", base, err)
	}
	if !ok {
		return fmt.Errorf("daemon %s serves no /healthz", base)
	}
	fmt.Printf("daemon %s: %s (%s role, up %s)\n",
		base, health.Status, health.Role, time.Duration(health.UptimeSeconds*float64(time.Second)).Round(time.Second))
	if len(health.Facts) > 0 {
		keys := make([]string, 0, len(health.Facts))
		for k := range health.Facts {
			if k == "alerts" || k == "scrape_staleness_seconds" {
				continue // rendered from their dedicated endpoints below
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %s: %v\n", k, health.Facts[k])
		}
	}

	var alerts struct {
		Alerts  []obs.Alert    `json:"alerts"`
		Summary map[string]int `json:"summary"`
	}
	if ok, err = get("/alerts", &alerts); err != nil {
		return err
	} else if ok {
		firing := 0
		for _, a := range alerts.Alerts {
			if a.State == obs.AlertFiring.String() || a.State == obs.AlertPending.String() {
				firing++
			}
		}
		fmt.Printf("\nalerts: %d objectives, %d pending/firing\n", len(alerts.Alerts), firing)
		for _, a := range alerts.Alerts {
			if a.State == obs.AlertOK.String() {
				continue
			}
			fmt.Printf("  [%s] %s", a.State, a.Name)
			if a.FastBurn > 0 || a.SlowBurn > 0 {
				fmt.Printf(" — burn %.1fx fast / %.1fx slow", a.FastBurn, a.SlowBurn)
			}
			fmt.Println()
		}
	}

	var fstat fleet.FleetStatus
	if ok, err = get("/fleet/status", &fstat); err != nil {
		return err
	} else if ok {
		fmt.Printf("\nfleet: %d/%d workers alive, %d shards in flight, queue depth %d\n",
			fstat.WorkersAlive, len(fstat.Workers), fstat.ShardsInflight, fstat.QueueDepth)
		tbl := report.NewTable("", "worker", "alive", "slots", "busy", "queue", "scrape age")
		for _, w := range fstat.Workers {
			age := "-"
			if w.Scraped {
				age = fmt.Sprintf("%.1fs", w.ScrapeAgeSeconds)
			}
			tbl.AddRow(w.URL, w.Alive, w.Slots, w.BusySlots, w.QueueDepth, age)
		}
		if len(fstat.Workers) > 0 {
			if err := tbl.Write(os.Stdout); err != nil {
				return err
			}
		}
	}

	var jobs []campaign.Status
	if ok, err = get("/v1/campaigns", &jobs); err != nil {
		return err
	} else if ok {
		fmt.Printf("\njobs: %d\n", len(jobs))
		for _, j := range jobs {
			line := fmt.Sprintf("  %s %s %s/%s", j.ID, j.State, j.Spec.Target, j.Spec.Bus)
			if j.Progress.Total > 0 {
				line += fmt.Sprintf(" %d/%d", j.Progress.Done, j.Progress.Total)
			}
			fmt.Println(line)
		}
	}
	return nil
}
