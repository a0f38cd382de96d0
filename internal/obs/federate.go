package obs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file holds the one model of a Prometheus text exposition, Snapshot,
// with its only parser (ParseExposition) and its only renderer
// (Snapshot.WritePrometheus), and the metric federation built on them:
// relabeling worker families under the fleet namespace with a worker label
// and merging snapshots as a disjoint union. Registry.WritePrometheus
// renders through a Snapshot, so every /metrics byte comes from one
// renderer, and the parser accepts exactly the dialect that renderer writes.

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// MaxExpositionBytes bounds an exposition accepted from another process:
// ParseExposition reads no longer line, and a coordinator refuses a larger
// heartbeat body. A worker's exposition after one job is about 10 KB.
const MaxExpositionBytes = 1 << 20

// HistValue is a parsed histogram series: per-bucket (non-cumulative)
// counts, bucket upper bounds kept as their rendered strings so federation
// never re-formats a bound, and the running sum.
type HistValue struct {
	Bounds []string // rendered bounds, ascending, excluding +Inf
	Counts []int64  // len(Bounds)+1; last is the +Inf bucket
	Sum    float64
}

// SeriesValue is one sample stream. Raw, when set, is the exact value text
// to render (the parsed text, or a registry counter's or gauge's integer),
// so rendering passes it through; otherwise Value renders via formatFloat.
type SeriesValue struct {
	Labels string // rendered {k="v",...} or ""
	Value  float64
	Raw    string
	Hist   *HistValue
}

// Family is one metric family.
type Family struct {
	Name   string
	Help   string
	Kind   string // "counter", "gauge", or "histogram"
	Series map[string]*SeriesValue
}

// Snapshot is a point-in-time exposition: of one registry, of one worker's
// pushed metrics, or of a whole fleet after federation. A snapshot is not
// modified once built, except by Add on the receiver.
type Snapshot struct {
	Families map[string]*Family
}

func newSnapshot() *Snapshot { return &Snapshot{Families: make(map[string]*Family)} }

// ParseExposition parses Prometheus text exposition in the dialect
// Snapshot.WritePrometheus writes and refuses anything else. The input is
// one or more families, each a "# HELP name text" line, a "# TYPE name
// kind" line (counter, gauge or histogram) and at least one sample; blank
// lines may appear anywhere. Names, label names, escapes and values follow
// the exposition format, and a series (family plus canonical label set)
// appears once. A histogram series has only _bucket, _sum and _count
// samples, its le bounds rise strictly to +Inf, its cumulative counts never
// fall, and its _count equals its +Inf bucket.
func ParseExposition(r io.Reader) (*Snapshot, error) {
	p := &parser{snap: newSnapshot()}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxExpositionBytes)
	sc.Split(scanLF)
	for n := 1; sc.Scan(); n++ {
		if err := p.line(sc.Text()); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	if err := p.endFamily(); err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	if len(p.snap.Families) == 0 {
		return nil, errors.New("obs: empty exposition")
	}
	return p.snap, nil
}

// scanLF splits lines at '\n' only. Unlike bufio.ScanLines it keeps a
// carriage return, so one is refused or round-trips verbatim.
func scanLF(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// parser is ParseExposition's state: the family being read and, for a
// histogram family, its series under construction.
type parser struct {
	snap    *Snapshot
	fam     *Family               // family of the last HELP line
	typed   bool                  // fam's TYPE line was read
	sampled bool                  // fam has a sample
	hists   map[string]*histBuild // fam's histogram series by label key
}

// histBuild accumulates one histogram series: its buckets in exposition
// order (the +Inf bucket last), then its _sum and _count.
type histBuild struct {
	bounds           []string
	cum              []int64
	last             float64 // bound of the last bucket read
	sum              float64
	count            int64
	hasSum, hasCount bool
}

func (p *parser) line(line string) error {
	switch {
	case line == "":
		return nil
	case strings.HasPrefix(line, "# HELP "):
		if err := p.endFamily(); err != nil {
			return err
		}
		name, text, _ := strings.Cut(line[len("# HELP "):], " ")
		if !metricName.MatchString(name) {
			return fmt.Errorf("bad family name %q", name)
		}
		if _, dup := p.snap.Families[name]; dup {
			return fmt.Errorf("family %s declared twice", name)
		}
		help, err := unescape(text, false)
		if err != nil {
			return fmt.Errorf("HELP %s: %w", name, err)
		}
		p.fam = &Family{Name: name, Help: help, Series: make(map[string]*SeriesValue)}
		p.snap.Families[name] = p.fam
		p.typed, p.sampled, p.hists = false, false, nil
		return nil
	case strings.HasPrefix(line, "# TYPE "):
		name, kind, _ := strings.Cut(line[len("# TYPE "):], " ")
		if p.fam == nil || p.typed || name != p.fam.Name {
			return fmt.Errorf("TYPE %q does not follow its HELP", name)
		}
		switch kind {
		case "counter", "gauge":
		case "histogram":
			p.hists = make(map[string]*histBuild)
		default:
			return fmt.Errorf("unknown TYPE %q for %s", kind, name)
		}
		p.fam.Kind, p.typed = kind, true
		return nil
	case strings.HasPrefix(line, "#"):
		return fmt.Errorf("unexpected comment %q", line)
	}
	return p.sample(line)
}

// sample reads one sample line of the current family.
func (p *parser) sample(line string) error {
	f := p.fam
	if f == nil || !p.typed {
		return fmt.Errorf("sample before its family's HELP and TYPE: %q", line)
	}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return fmt.Errorf("malformed sample %q", line)
	}
	name, rest := line[:i], line[i:]
	var labels []Label
	if rest[0] == '{' {
		ls, n, err := parseLabelSet(rest)
		if err != nil {
			return err
		}
		labels, rest = ls, rest[n:]
	}
	value, ok := strings.CutPrefix(rest, " ")
	if !ok {
		return fmt.Errorf("malformed sample %q", line)
	}
	p.sampled = true
	if f.Kind == "histogram" {
		return p.histSample(name, labels, value)
	}
	if name != f.Name {
		return fmt.Errorf("sample %s in family %s", name, f.Name)
	}
	v, err := parseValue(value)
	if err != nil {
		return err
	}
	key := renderLabels(labels)
	if _, dup := f.Series[key]; dup {
		return fmt.Errorf("duplicate series %s%s", name, key)
	}
	f.Series[key] = &SeriesValue{Labels: key, Value: v, Raw: value}
	return nil
}

// histSample reads one _bucket, _sum or _count sample of the current
// histogram family.
func (p *parser) histSample(name string, labels []Label, value string) error {
	f := p.fam
	switch name {
	case f.Name + "_bucket":
		le := -1
		for i, l := range labels {
			if l.Key == "le" {
				le = i
			}
		}
		if le < 0 {
			return fmt.Errorf("%s without le", name)
		}
		bound := labels[le].Value
		key := renderLabels(append(labels[:le:le], labels[le+1:]...))
		b, err := parseValue(bound)
		if err != nil {
			return fmt.Errorf("%s%s: le: %w", name, key, err)
		}
		n, err := parseCount(value)
		if err != nil {
			return err
		}
		hb := p.hist(key)
		if k := len(hb.cum); k > 0 && !(b > hb.last && n >= hb.cum[k-1]) {
			return fmt.Errorf("%s%s: le must rise and counts never fall", name, key)
		}
		hb.bounds, hb.cum, hb.last = append(hb.bounds, bound), append(hb.cum, n), b
	case f.Name + "_sum":
		hb := p.hist(renderLabels(labels))
		v, err := parseValue(value)
		if err != nil {
			return err
		}
		if hb.hasSum {
			return fmt.Errorf("duplicate series %s%s", name, renderLabels(labels))
		}
		hb.sum, hb.hasSum = v, true
	case f.Name + "_count":
		hb := p.hist(renderLabels(labels))
		n, err := parseCount(value)
		if err != nil {
			return err
		}
		if hb.hasCount {
			return fmt.Errorf("duplicate series %s%s", name, renderLabels(labels))
		}
		hb.count, hb.hasCount = n, true
	default:
		return fmt.Errorf("sample %s in histogram %s", name, f.Name)
	}
	return nil
}

func (p *parser) hist(key string) *histBuild {
	hb := p.hists[key]
	if hb == nil {
		hb = &histBuild{}
		p.hists[key] = hb
	}
	return hb
}

// endFamily checks the family just read and stores its histogram series.
func (p *parser) endFamily() error {
	f := p.fam
	if f == nil {
		return nil
	}
	if !p.typed {
		return fmt.Errorf("family %s has HELP but no TYPE", f.Name)
	}
	if !p.sampled {
		return fmt.Errorf("family %s has no samples", f.Name)
	}
	for key, hb := range p.hists {
		switch k := len(hb.cum); {
		case !math.IsInf(hb.last, 1):
			return fmt.Errorf(`histogram %s%s does not end at le="+Inf"`, f.Name, key)
		case !hb.hasSum || !hb.hasCount:
			return fmt.Errorf("histogram %s%s lacks _sum or _count", f.Name, key)
		case hb.count != hb.cum[k-1]:
			return fmt.Errorf("histogram %s%s: _count %d is not the +Inf bucket %d",
				f.Name, key, hb.count, hb.cum[k-1])
		}
		counts := make([]int64, len(hb.cum))
		var prev int64
		for i, c := range hb.cum {
			counts[i], prev = c-prev, c
		}
		f.Series[key] = &SeriesValue{Labels: key, Hist: &HistValue{
			Bounds: hb.bounds[:len(hb.bounds)-1], Counts: counts, Sum: hb.sum,
		}}
	}
	return nil
}

// parseValue reads a sample value: a decimal float, +Inf, -Inf or NaN.
func parseValue(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || strings.Trim(s, "0123456789.eE+-") != "" && s != "+Inf" && s != "-Inf" && s != "NaN" {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return v, nil
}

// parseCount reads a histogram count: a non-negative decimal integer.
func parseCount(s string) (int64, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad count %q", s)
	}
	return n, nil
}

// unescape undoes exposition escaping: \\ and \n, and \" in a quoted label
// value. Any other escape is an error.
func unescape(s string, quoted bool) (string, error) {
	if !strings.Contains(s, `\`) {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\\' {
			if i++; i == len(s) {
				return "", errors.New("trailing backslash")
			}
			switch c = s[i]; {
			case c == 'n':
				c = '\n'
			case c == '\\' || c == '"' && quoted:
			default:
				return "", fmt.Errorf(`bad escape \%c`, c)
			}
		}
		b.WriteByte(c)
	}
	return b.String(), nil
}

// ParseLabels parses a rendered label string ({k="v",...} or "") back into
// labels, undoing exposition escaping. Label names must be valid and
// distinct.
func ParseLabels(s string) ([]Label, error) {
	if s == "" {
		return nil, nil
	}
	ls, n, err := parseLabelSet(s)
	if err == nil && n != len(s) {
		err = fmt.Errorf("text after label set %q", s)
	}
	return ls, err
}

// parseLabelSet reads the {k="v",...} label set that starts s and returns
// its labels and its length in bytes.
func parseLabelSet(s string) ([]Label, int, error) {
	if !strings.HasPrefix(s, "{") {
		return nil, 0, fmt.Errorf("malformed label set %q", s)
	}
	var out []Label
	for i := 1; ; {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, 0, fmt.Errorf("malformed label set %q", s)
		}
		key := s[i : i+eq]
		if !labelName.MatchString(key) {
			return nil, 0, fmt.Errorf("bad label name %q", key)
		}
		for _, l := range out {
			if l.Key == key {
				return nil, 0, fmt.Errorf("label %s repeated", key)
			}
		}
		i += eq + 1
		if i == len(s) || s[i] != '"' {
			return nil, 0, fmt.Errorf("unquoted value for label %s", key)
		}
		j := i + 1
		for j < len(s) && s[j] != '"' {
			if s[j] == '\\' {
				j++
			}
			j++
		}
		if j >= len(s) {
			return nil, 0, fmt.Errorf("unterminated value for label %s", key)
		}
		v, err := unescape(s[i+1:j], true)
		if err != nil {
			return nil, 0, fmt.Errorf("label %s: %w", key, err)
		}
		out = append(out, Label{Key: key, Value: v})
		switch i = j + 1; {
		case i < len(s) && s[i] == ',':
			i++
		case i < len(s) && s[i] == '}':
			return out, i + 1, nil
		default:
			return nil, 0, fmt.Errorf("malformed label set %q", s)
		}
	}
}

// FleetFamilyName maps a worker-local family name into the fleet namespace:
// already-fleet families keep their name, other xtalkd_* families move
// under xtalkd_fleet_*, and anything else is prefixed wholesale.
func FleetFamilyName(name string) string {
	if strings.HasPrefix(name, "xtalkd_fleet_") {
		return name
	}
	if strings.HasPrefix(name, "xtalkd_") {
		return "xtalkd_fleet_" + strings.TrimPrefix(name, "xtalkd_")
	}
	return "xtalkd_fleet_" + name
}

// Relabel returns a copy of the snapshot with every family renamed via
// FleetFamilyName and every series tagged with a worker label. It refuses a
// series that already has a worker label and two families that map to one
// fleet name, since either would make two series one.
func (s *Snapshot) Relabel(worker string) (*Snapshot, error) {
	out := newSnapshot()
	for _, f := range s.Families {
		name := FleetFamilyName(f.Name)
		if _, dup := out.Families[name]; dup {
			return nil, fmt.Errorf("obs: relabel %s: another family also maps to %s", f.Name, name)
		}
		nf := &Family{Name: name, Help: f.Help, Kind: f.Kind,
			Series: make(map[string]*SeriesValue, len(f.Series))}
		out.Families[name] = nf
		for _, sv := range f.Series {
			ls, err := ParseLabels(sv.Labels)
			if err != nil {
				return nil, fmt.Errorf("obs: relabel %s: %v", f.Name, err)
			}
			for _, l := range ls {
				if l.Key == "worker" {
					return nil, fmt.Errorf("obs: relabel %s%s: series already has a worker label", f.Name, sv.Labels)
				}
			}
			key := renderLabels(append(ls, Label{Key: "worker", Value: worker}))
			nf.Series[key] = &SeriesValue{Labels: key, Value: sv.Value, Raw: sv.Raw, Hist: sv.Hist}
		}
	}
	return out, nil
}

// Add merges src into s as a disjoint union: a family present in both must
// have one kind, and a series present in both is an error, so no merge ever
// combines two values. On error s is partly merged and must be discarded.
func (s *Snapshot) Add(src *Snapshot) error {
	for name, sf := range src.Families {
		f, ok := s.Families[name]
		if !ok {
			f = &Family{Name: name, Help: sf.Help, Kind: sf.Kind,
				Series: make(map[string]*SeriesValue, len(sf.Series))}
			s.Families[name] = f
		} else if f.Kind != sf.Kind {
			return fmt.Errorf("obs: federate %s: kind %s vs %s", name, f.Kind, sf.Kind)
		}
		for key, sv := range sf.Series {
			if _, dup := f.Series[key]; dup {
				return fmt.Errorf("obs: federate %s%s: series on both sides", name, key)
			}
			f.Series[key] = sv
		}
	}
	return nil
}

// Federate merges per-worker snapshots into one fleet snapshot, iterating
// workers in sorted name order so the result is byte-stable for any scrape
// arrival order.
func Federate(snaps map[string]*Snapshot) (*Snapshot, error) {
	out := newSnapshot()
	names := make([]string, 0, len(snaps))
	for name := range snaps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rl, err := snaps[name].Relabel(name)
		if err != nil {
			return nil, err
		}
		if err := out.Add(rl); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Value looks up a scalar series value by family name and rendered label
// string ("" for the unlabeled series).
func (s *Snapshot) Value(name, labels string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	f, ok := s.Families[name]
	if !ok {
		return 0, false
	}
	sv, ok := f.Series[labels]
	if !ok || sv.Hist != nil {
		return 0, false
	}
	return sv.Value, true
}

// WritePrometheus renders the snapshot as Prometheus text exposition, the
// only exposition writer in the stack: families in name order, each a
// # HELP and a # TYPE line followed by its series in label-string order,
// histograms as cumulative _bucket lines with le merged into the labels,
// then _sum and _count.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(s.Families))
	for name := range s.Families {
		names = append(names, name)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, name := range names {
		f := s.Families[name]
		help := strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(f.Help)
		fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Kind)
		keys := make([]string, 0, len(f.Series))
		for key := range f.Series {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			sv := f.Series[key]
			if sv.Hist == nil {
				if sv.Raw != "" {
					fmt.Fprintf(bw, "%s%s %s\n", f.Name, sv.Labels, sv.Raw)
				} else {
					fmt.Fprintf(bw, "%s%s %s\n", f.Name, sv.Labels, formatFloat(sv.Value))
				}
				continue
			}
			merge := func(le string) string {
				if sv.Labels == "" {
					return `{le="` + le + `"}`
				}
				return sv.Labels[:len(sv.Labels)-1] + `,le="` + le + `"}`
			}
			var cum int64
			for i, bound := range sv.Hist.Bounds {
				cum += sv.Hist.Counts[i]
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.Name, merge(bound), cum)
			}
			cum += sv.Hist.Counts[len(sv.Hist.Bounds)]
			fmt.Fprintf(bw, "%s_bucket%s %d\n", f.Name, merge("+Inf"), cum)
			fmt.Fprintf(bw, "%s_sum%s %s\n", f.Name, sv.Labels, formatFloat(sv.Hist.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", f.Name, sv.Labels, cum)
		}
	}
	return bw.Flush()
}
