package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

// TestHeartbeatRefusedIsRecorded beats against a stub coordinator that
// refuses the registration with a 400: the worker's flight recorder must
// hold a heartbeat.refused event carrying the status and the error body.
func TestHeartbeatRefusedIsRecorded(t *testing.T) {
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/fleet/workers" {
			t.Errorf("heartbeat sent %s %s", r.Method, r.URL.Path)
		}
		http.Error(w, `{"error":"fleet: ingest metrics: no TYPE"}`, http.StatusBadRequest)
	}))
	defer coord.Close()
	tel := obs.NewTelemetry()
	heartbeat(context.Background(), tel, coord.URL, "http://worker.test:8081")

	var refused []obs.Event
	for _, ev := range tel.Rec.Events() {
		if ev.Type == "heartbeat.refused" {
			refused = append(refused, ev)
		}
	}
	if len(refused) != 1 {
		t.Fatalf("flight recorder holds %d heartbeat.refused events, want 1: %+v", len(refused), tel.Rec.Events())
	}
	f := refused[0].Fields
	if f["status"] != "400" || f["error"] != `{"error":"fleet: ingest metrics: no TYPE"}` || f["coordinator"] != coord.URL {
		t.Fatalf("heartbeat.refused fields = %v", f)
	}
}

// TestHeartbeatAcceptedRecordsNothing beats against a coordinator that
// accepts the registration: no refusal is recorded.
func TestHeartbeatAcceptedRecordsNothing(t *testing.T) {
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("[]"))
	}))
	defer coord.Close()
	tel := obs.NewTelemetry()
	heartbeat(context.Background(), tel, coord.URL, "http://worker.test:8081")
	for _, ev := range tel.Rec.Events() {
		if ev.Type == "heartbeat.refused" {
			t.Fatalf("accepted heartbeat recorded a refusal: %+v", ev)
		}
	}
}
