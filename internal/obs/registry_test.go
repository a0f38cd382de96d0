package obs

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_jobs_total", "jobs processed")
	c.Add(3)
	g := r.Gauge("test_queue_depth", "queued items")
	g.Set(7)
	r.GaugeFunc("test_workers", "pool size", func() float64 { return 4 })
	h := r.Histogram("test_latency_seconds", "op latency", nil, Label{"tier", "replay"})
	h.Observe(2e-6)
	h.Observe(0.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP test_jobs_total jobs processed",
		"# TYPE test_jobs_total counter",
		"test_jobs_total 3",
		"# TYPE test_queue_depth gauge",
		"test_queue_depth 7",
		"test_workers 4",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{tier="replay",le="+Inf"} 2`,
		`test_latency_seconds_count{tier="replay"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if _, err := ParseExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("own exposition fails lint: %v\n%s", err, text)
	}
}

func TestRegistryIdempotentAndKindConflict(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "x")
	b := r.Counter("dup_total", "x")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("dup_total", "x")
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hist_seconds", "x", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got := h.Sum(); got < 5.5 || got > 5.6 {
		t.Fatalf("sum = %g, want ~5.555", got)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	for _, want := range []string{
		`hist_seconds_bucket{le="0.01"} 1`,
		`hist_seconds_bucket{le="0.1"} 2`,
		`hist_seconds_bucket{le="1"} 3`,
		`hist_seconds_bucket{le="+Inf"} 4`,
		"hist_seconds_count 4",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in:\n%s", want, buf.String())
		}
	}
}

func TestHistogramObserveSince(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("since_seconds", "x", nil)
	h.ObserveSince(time.Now().Add(-10 * time.Millisecond))
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Fatalf("count=%d sum=%g after ObserveSince", h.Count(), h.Sum())
	}
}

func TestDurationBucketsShape(t *testing.T) {
	b := DurationBuckets()
	if len(b) != 13 || b[0] != 1e-6 {
		t.Fatalf("unexpected duration buckets %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not ascending at %d: %v", i, b)
		}
	}
	if b[len(b)-1] < 10 {
		t.Fatalf("largest bucket %g does not cover multi-second campaigns", b[len(b)-1])
	}
}

// TestRegistryConcurrentScrape hammers updates and scrapes together; run
// under -race this is the registry's thread-safety proof.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "x")
	h := r.Histogram("conc_seconds", "x", nil, Label{"tier", "a"})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Inc()
				h.Observe(1e-4)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Error(err)
		}
		// Registration of a new labelled series may race scrapes too.
		r.Histogram("conc_seconds", "x", nil, Label{"tier", "a"})
	}
	wg.Wait()
	if c.Value() != 2000 || h.Count() != 2000 {
		t.Fatalf("counter=%d hist=%d, want 2000 each", c.Value(), h.Count())
	}
}

// parseRejects holds exposition ParseExposition must refuse. The first six
// are basic format checks; each of the rest, if a heartbeat could push it,
// would leave the fleet /metrics invalid or lose a series.
var parseRejects = map[string]string{
	"no type":               "foo 1\n",
	"duplicate series":      "# HELP foo x\n# TYPE foo counter\nfoo 1\nfoo 2\n",
	"type before help":      "# TYPE foo counter\nfoo 1\n",
	"bad sample":            "# HELP foo x\n# TYPE foo counter\nfoo one\n",
	"empty":                 "",
	"unknown kind":          "# HELP foo x\n# TYPE foo matrix\nfoo 1\n",
	"help only":             "# HELP xtalkd_evil_total x\n",
	"bare histogram sample": "# HELP h x\n# TYPE h histogram\nh 1\n",
	"hex float":             "# HELP g x\n# TYPE g gauge\ng 0x1p4\n",
	"infinity":              "# HELP g x\n# TYPE g gauge\ng infinity\n",
	"quote in family name":  "# HELP a\"b x\n# TYPE a\"b counter\na\"b 1\n",
	"duplicate label name":  "# HELP g x\n# TYPE g gauge\ng{a=\"1\",a=\"2\"} 1\n",
	"invalid label name":    "# HELP g x\n# TYPE g gauge\ng{a-b=\"1\"} 1\n",
	"reordered duplicate":   "# HELP g x\n# TYPE g gauge\ng{b=\"1\",a=\"2\"} 1\ng{a=\"2\",b=\"1\"} 5\n",
	"count not +Inf bucket": "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
}

func TestParseExpositionRejects(t *testing.T) {
	for name, text := range parseRejects {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parsed %q", name, text)
		}
	}
}

// TestParseExpositionGrammar pins the rest of the dialect: what
// Snapshot.WritePrometheus never writes is refused, and the few liberties
// the parser takes (blank lines, label order) render canonically.
func TestParseExpositionGrammar(t *testing.T) {
	const head = "# HELP g x\n# TYPE g gauge\n"
	const hist = "# HELP h x\n# TYPE h histogram\n"
	for name, text := range map[string]string{
		"other comment":      "# generated\n" + head + "g 1\n",
		"timestamp":          head + "g 1 1700000000\n",
		"help escape":        "# HELP g a\\tb\n# TYPE g gauge\ng 1\n",
		"label escape":       head + `g{a="\t"} 1` + "\n",
		"empty label set":    head + "g{} 1\n",
		"trailing comma":     head + `g{a="1",} 1` + "\n",
		"help twice":         head + "g 1\n# HELP g x\n# TYPE g gauge\ng{a=\"1\"} 1\n",
		"interleaved":        head + "g 1\n# HELP f x\n# TYPE f gauge\nf 1\ng{a=\"1\"} 1\n",
		"summary":            "# HELP s x\n# TYPE s summary\ns_sum 1\ns_count 1\n",
		"no samples":         head,
		"carriage return":    head + "g 1\r\n",
		"bounds fall":        hist + `h_bucket{le="2"} 1` + "\n" + `h_bucket{le="1"} 1` + "\n" + `h_bucket{le="+Inf"} 1` + "\nh_sum 1\nh_count 1\n",
		"counts fall":        hist + `h_bucket{le="1"} 2` + "\n" + `h_bucket{le="+Inf"} 1` + "\nh_sum 1\nh_count 1\n",
		"no +Inf bucket":     hist + `h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n",
		"fractional count":   hist + `h_bucket{le="+Inf"} 1.5` + "\nh_sum 1\nh_count 1.5\n",
		"no _sum":            hist + `h_bucket{le="+Inf"} 1` + "\nh_count 1\n",
		"bucket without le":  hist + "h_bucket 1\n" + `h_bucket{le="+Inf"} 1` + "\nh_sum 1\nh_count 1\n",
		"out-of-range value": head + "g 1e400\n",
	} {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parsed %q", name, text)
		}
	}

	in := "\n" + head + `g{b="1",a="2"} 1.50` + "\n\n" + hist + `h_bucket{le="+Inf",x="y"} 0` + "\nh_sum{x=\"y\"} 0\nh_count{x=\"y\"} 0"
	want := head + `g{a="2",b="1"} 1.50` + "\n" + hist + `h_bucket{x="y",le="+Inf"} 0` + "\nh_sum{x=\"y\"} 0\nh_count{x=\"y\"} 0\n"
	snap, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	snap.WritePrometheus(&out)
	if out.String() != want {
		t.Fatalf("rendered\n%s\nwant\n%s", out.String(), want)
	}
}

// TestRegistryExpositionPinned pins the registry's rendering byte for byte:
// every series kind, a counter past one million (integer text, not
// 1e+06), a fractional GaugeFunc, and the escapes of HELP text and label
// values.
func TestRegistryExpositionPinned(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("xtalkd_pin_big_total", "A counter past one million.").Add(1000000)
	reg.Counter("xtalkd_pin_escape_total", "Back\\slash, \"quote\"\nand a newline.",
		Label{"path", "C:\\tmp\n\"x\""}).Add(3)
	reg.Counter("xtalkd_pin_escape_total", "Back\\slash, \"quote\"\nand a newline.",
		Label{"path", "plain"}, Label{"bus", "addr"}).Inc()
	reg.Gauge("xtalkd_pin_queue", "Queued items.").Set(-7)
	reg.GaugeFunc("xtalkd_pin_ratio", "A fractional gauge.", func() float64 { return 1.0 / 3 })
	reg.CounterFunc("xtalkd_pin_func_total", "A counter computed at scrape time.",
		func() float64 { return 2.5e6 })
	lh := reg.Histogram("xtalkd_pin_seconds", "A labelled histogram.",
		[]float64{0.001, 0.25, 4}, Label{"tier", "replay"})
	for _, v := range []float64{0.0005, 0.1, 0.1, 10} {
		lh.Observe(v)
	}
	h := reg.Histogram("xtalkd_pin_wall_seconds", "An unlabelled histogram.", nil)
	h.Observe(3e-6)
	h.Observe(0.5)

	const want = `# HELP xtalkd_pin_big_total A counter past one million.
# TYPE xtalkd_pin_big_total counter
xtalkd_pin_big_total 1000000
# HELP xtalkd_pin_escape_total Back\\slash, "quote"\nand a newline.
# TYPE xtalkd_pin_escape_total counter
xtalkd_pin_escape_total{bus="addr",path="plain"} 1
xtalkd_pin_escape_total{path="C:\\tmp\n\"x\""} 3
# HELP xtalkd_pin_func_total A counter computed at scrape time.
# TYPE xtalkd_pin_func_total counter
xtalkd_pin_func_total 2.5e+06
# HELP xtalkd_pin_queue Queued items.
# TYPE xtalkd_pin_queue gauge
xtalkd_pin_queue -7
# HELP xtalkd_pin_ratio A fractional gauge.
# TYPE xtalkd_pin_ratio gauge
xtalkd_pin_ratio 0.3333333333333333
# HELP xtalkd_pin_seconds A labelled histogram.
# TYPE xtalkd_pin_seconds histogram
xtalkd_pin_seconds_bucket{tier="replay",le="0.001"} 1
xtalkd_pin_seconds_bucket{tier="replay",le="0.25"} 3
xtalkd_pin_seconds_bucket{tier="replay",le="4"} 3
xtalkd_pin_seconds_bucket{tier="replay",le="+Inf"} 4
xtalkd_pin_seconds_sum{tier="replay"} 10.2005
xtalkd_pin_seconds_count{tier="replay"} 4
# HELP xtalkd_pin_wall_seconds An unlabelled histogram.
# TYPE xtalkd_pin_wall_seconds histogram
xtalkd_pin_wall_seconds_bucket{le="1e-06"} 0
xtalkd_pin_wall_seconds_bucket{le="4e-06"} 1
xtalkd_pin_wall_seconds_bucket{le="1.6e-05"} 1
xtalkd_pin_wall_seconds_bucket{le="6.4e-05"} 1
xtalkd_pin_wall_seconds_bucket{le="0.000256"} 1
xtalkd_pin_wall_seconds_bucket{le="0.001024"} 1
xtalkd_pin_wall_seconds_bucket{le="0.004096"} 1
xtalkd_pin_wall_seconds_bucket{le="0.016384"} 1
xtalkd_pin_wall_seconds_bucket{le="0.065536"} 1
xtalkd_pin_wall_seconds_bucket{le="0.262144"} 1
xtalkd_pin_wall_seconds_bucket{le="1.048576"} 2
xtalkd_pin_wall_seconds_bucket{le="4.194304"} 2
xtalkd_pin_wall_seconds_bucket{le="16.777216"} 2
xtalkd_pin_wall_seconds_bucket{le="+Inf"} 2
xtalkd_pin_wall_seconds_sum 0.500003
xtalkd_pin_wall_seconds_count 2
`
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Fatalf("registry exposition changed:\n%s", buf.String())
	}
}
