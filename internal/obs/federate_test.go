package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// workerRegistry builds a registry shaped like a campaign worker's: counters,
// a labeled gauge family, and a duration histogram, all with
// deterministically varied values.
func workerRegistry(seed int64) *Registry {
	reg := NewRegistry()
	c := reg.Counter("xtalkd_defects_simulated_total", "Defect runs simulated.")
	c.Add(100 + seed)
	g := reg.Gauge("xtalkd_workers_busy", "Busy pool slots.")
	g.Set(seed % 7)
	for _, eng := range []string{"execute", "replay"} {
		ec := reg.Counter("xtalkd_engine_executes_total", "Full executions.",
			Label{"engine", eng})
		ec.Add(10*seed + int64(len(eng)))
	}
	h := reg.Histogram("xtalkd_job_seconds", "Job wall time.", nil)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 20; i++ {
		// Exactly representable values so float sums commute and associate.
		h.Observe(float64(rng.Intn(1024)) / 256)
	}
	return reg
}

func render(reg *Registry) string {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	return buf.String()
}

// TestParseExpositionRoundTrip proves parse→render is a byte-level identity
// for a representative registry, which is what makes single-worker
// federation lossless.
func TestParseExpositionRoundTrip(t *testing.T) {
	text := render(workerRegistry(3))
	snap, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := snap.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != text {
		t.Fatalf("round trip differs:\n--- original ---\n%s\n--- round trip ---\n%s", text, out.String())
	}
}

// TestParseExpositionRawPassthrough proves unmerged series render their
// original value text even when Go's float formatting would differ (%d
// counters at 1e6 render "1000000", formatFloat would say "1e+06").
func TestParseExpositionRawPassthrough(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("xtalkd_big_total", "Big.").Add(1000000)
	text := render(reg)
	snap, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	snap.WritePrometheus(&out)
	if !strings.Contains(out.String(), "xtalkd_big_total 1000000\n") {
		t.Fatalf("large counter not passed through verbatim:\n%s", out.String())
	}
}

func TestParseLabelsEscapes(t *testing.T) {
	in := []Label{{"a", `q"u\o`}, {"b", "x\ny"}}
	rendered := renderLabels(in)
	got, err := ParseLabels(rendered)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("ParseLabels(%q) = %v", rendered, got)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("label %d = %+v, want %+v", i, got[i], in[i])
		}
	}
	if _, err := ParseLabels(`{broken`); err == nil {
		t.Fatal("malformed label string parsed without error")
	}
}

func TestFleetFamilyName(t *testing.T) {
	for in, want := range map[string]string{
		"xtalkd_fleet_workers":           "xtalkd_fleet_workers",
		"xtalkd_defects_simulated_total": "xtalkd_fleet_defects_simulated_total",
		"process_cpu_seconds":            "xtalkd_fleet_process_cpu_seconds",
	} {
		if got := FleetFamilyName(in); got != want {
			t.Errorf("FleetFamilyName(%q) = %q, want %q", in, got, want)
		}
	}
}

func snapshotOf(t *testing.T, reg *Registry) *Snapshot {
	t.Helper()
	snap, err := ParseExposition(strings.NewReader(render(reg)))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestFederateByteStable proves the tentpole's determinism claim: the
// federated exposition is byte-identical for every scrape arrival order,
// because Federate iterates workers in sorted order and rendering sorts
// families and series.
func TestFederateByteStable(t *testing.T) {
	urls := []string{"http://w3:1", "http://w1:1", "http://w2:1"}
	regs := make(map[string]*Registry, len(urls))
	for i, u := range urls {
		regs[u] = workerRegistry(int64(i + 1))
	}
	var first string
	for perm := 0; perm < 6; perm++ {
		// Rebuild the snapshot map in a permuted insertion order; map
		// iteration order varies anyway, so this exercises both the map and
		// the arrival sequence.
		order := append([]string(nil), urls...)
		rng := rand.New(rand.NewSource(int64(perm)))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		snaps := make(map[string]*Snapshot, len(order))
		for _, u := range order {
			snaps[u] = snapshotOf(t, regs[u])
		}
		fed, err := Federate(snaps)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		fed.WritePrometheus(&buf)
		if perm == 0 {
			first = buf.String()
			if _, err := ParseExposition(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("federated exposition lint: %v\n%s", err, buf.String())
			}
			continue
		}
		if buf.String() != first {
			t.Fatalf("permutation %d renders different bytes:\n--- first ---\n%s\n--- now ---\n%s",
				perm, first, buf.String())
		}
	}
	for _, u := range urls {
		want := fmt.Sprintf("worker=%q", u)
		if !strings.Contains(first, want) {
			t.Fatalf("federated exposition missing %s series:\n%s", want, first)
		}
	}
}

// TestFederateHistogramMerge proves histogram federation is a true merge:
// per-bucket counts and sums across workers equal a single registry that
// observed every worker's samples, regardless of scrape order (merge
// commutativity and associativity).
func TestFederateHistogramMerge(t *testing.T) {
	// The union registry observes everything the two workers observed.
	union := NewRegistry()
	uh := union.Histogram("xtalkd_job_seconds", "Job wall time.", nil)
	mk := func(seed int64) *Registry {
		reg := NewRegistry()
		h := reg.Histogram("xtalkd_job_seconds", "Job wall time.", nil)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			v := float64(rng.Intn(4096)) / 512
			h.Observe(v)
			uh.Observe(v)
		}
		return reg
	}
	a, b := mk(11), mk(22)

	fedAB, err := Federate(map[string]*Snapshot{"a": snapshotOf(t, a), "b": snapshotOf(t, b)})
	if err != nil {
		t.Fatal(err)
	}
	// Collapse the worker label back out by re-merging the two labeled
	// series: Add a copy of the family with both series into one accumulator.
	sum := func(fed *Snapshot) (counts []int64, total float64) {
		fam := fed.Families["xtalkd_fleet_job_seconds"]
		if fam == nil {
			t.Fatalf("federated snapshot lacks xtalkd_fleet_job_seconds: %v", fed.Families)
		}
		for _, sv := range fam.Series {
			if sv.Hist == nil {
				t.Fatalf("series %s is not a histogram", sv.Labels)
			}
			if counts == nil {
				counts = make([]int64, len(sv.Hist.Counts))
			}
			for i, c := range sv.Hist.Counts {
				counts[i] += c
			}
			total += sv.Hist.Sum
		}
		return counts, total
	}
	gotCounts, gotSum := sum(fedAB)

	// Commutativity: scraping b before a merges to the same totals.
	fedBA, err := Federate(map[string]*Snapshot{"b": snapshotOf(t, b), "a": snapshotOf(t, a)})
	if err != nil {
		t.Fatal(err)
	}
	baCounts, baSum := sum(fedBA)
	for i := range gotCounts {
		if gotCounts[i] != baCounts[i] {
			t.Fatalf("bucket %d: a,b=%d but b,a=%d", i, gotCounts[i], baCounts[i])
		}
	}
	if gotSum != baSum {
		t.Fatalf("sum: a,b=%v but b,a=%v", gotSum, baSum)
	}

	// Equality with the single registry that saw every observation.
	usnap := snapshotOf(t, union)
	usv := usnap.Families["xtalkd_job_seconds"].Series[""]
	if usv == nil || usv.Hist == nil {
		t.Fatal("union registry has no histogram series")
	}
	var unionTotal int64
	for i, c := range usv.Hist.Counts {
		if gotCounts[i] != c {
			t.Fatalf("bucket %d: federated %d, union registry %d", i, gotCounts[i], c)
		}
		unionTotal += c
	}
	if gotSum != usv.Hist.Sum {
		t.Fatalf("sum: federated %v, union %v", gotSum, usv.Hist.Sum)
	}
	if unionTotal != 100 {
		t.Fatalf("union observed %d samples, want 100", unionTotal)
	}
}

// TestFederateSeriesCollision proves federation is a disjoint union: a
// series present on both sides of Add is an error, never a sum.
func TestFederateSeriesCollision(t *testing.T) {
	mk := func(v int64) *Snapshot {
		reg := NewRegistry()
		reg.Counter("xtalkd_defects_simulated_total", "Defect runs simulated.").Add(v)
		rl, err := snapshotOf(t, reg).Relabel("w")
		if err != nil {
			t.Fatal(err)
		}
		return rl
	}
	if err := mk(7).Add(mk(5)); err == nil {
		t.Fatal("a series on both sides merged without error")
	}
}

// TestRelabelRejects proves Relabel refuses the two pushes that would make
// two series one: a series that already carries a worker label, and two
// families that map to one fleet name.
func TestRelabelRejects(t *testing.T) {
	for name, text := range map[string]string{
		"pushed worker label": "# HELP g x\n# TYPE g gauge\ng{worker=\"evil\"} 1\n",
		"rename collision": "# HELP xtalkd_fleet_x x\n# TYPE xtalkd_fleet_x histogram\n" +
			"xtalkd_fleet_x_bucket{le=\"+Inf\"} 1\nxtalkd_fleet_x_sum 1\nxtalkd_fleet_x_count 1\n" +
			"# HELP xtalkd_x x\n# TYPE xtalkd_x counter\nxtalkd_x 1\n",
	} {
		snap, err := ParseExposition(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := snap.Relabel("http://w:1"); err == nil {
			t.Errorf("%s: relabeled without error", name)
		}
		if _, err := Federate(map[string]*Snapshot{"http://w:1": snap}); err == nil {
			t.Errorf("%s: federated without error", name)
		}
	}
}

// TestFederateKindConflict proves merging rejects families whose kinds
// disagree rather than silently corrupting the exposition.
func TestFederateKindConflict(t *testing.T) {
	cr := NewRegistry()
	cr.Counter("xtalkd_thing_total", "Thing.")
	gr := NewRegistry()
	gr.Gauge("xtalkd_thing_total", "Thing.")
	a := snapshotOf(t, cr)
	if err := a.Add(snapshotOf(t, gr)); err == nil {
		t.Fatal("kind conflict merged without error")
	}
}

// FuzzParseExposition holds the parser to the renderer: whatever parses
// renders to text that parses and renders to the same bytes again, and it
// federates to text that parses unless it has a shape Relabel refuses.
func FuzzParseExposition(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := ParseExposition(bytes.NewReader(b))
		if err != nil {
			return
		}
		first := renderSnapshot(t, snap)
		again, err := ParseExposition(strings.NewReader(first))
		if err != nil {
			t.Fatalf("rendering does not parse: %v\n%s", err, first)
		}
		if second := renderSnapshot(t, again); second != first {
			t.Fatalf("render, parse, render changed bytes:\n--- first ---\n%s--- second ---\n%s", first, second)
		}
		fed, err := Federate(map[string]*Snapshot{"w": snap})
		if refused := relabelRefuses(t, snap); (err != nil) != refused {
			t.Fatalf("Federate error %v, Relabel refusal expected %v", err, refused)
		}
		if err != nil {
			return
		}
		out := renderSnapshot(t, fed)
		if _, err := ParseExposition(strings.NewReader(out)); err != nil {
			t.Fatalf("federated rendering does not parse: %v\n%s", err, out)
		}
	})
}

func renderSnapshot(t *testing.T, s *Snapshot) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// relabelRefuses reports whether snap has a shape Relabel refuses: a series
// with a worker label, or two families with one fleet name.
func relabelRefuses(t *testing.T, snap *Snapshot) bool {
	fleet := make(map[string]bool, len(snap.Families))
	for name, f := range snap.Families {
		if fleet[FleetFamilyName(name)] {
			return true
		}
		fleet[FleetFamilyName(name)] = true
		for key := range f.Series {
			ls, err := ParseLabels(key)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range ls {
				if l.Key == "worker" {
					return true
				}
			}
		}
	}
	return false
}
