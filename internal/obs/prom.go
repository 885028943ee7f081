package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for the registry.
//
// The JSON snapshot at /v1/debug/metrics is for humans and the CLI; this
// writer is for machines — a standard Prometheus server pointed at
// /v1/debug/metrics/prom scrapes every Gallery metric, vectors included.
// The writer intentionally does NOT build on Snapshot(): snapshots omit
// empty buckets to keep JSON small, but the exposition format requires
// every histogram bucket, cumulative, ending at le="+Inf". It reads the
// live metric structures instead.
//
// Each family is one exposition family with a single HELP/TYPE pair, as
// the spec requires. Family names and label keys are sanitized to the
// legal charsets, and a label key that sanitizes like an earlier one of
// its family gets underscores appended until it is distinct; label values
// are escaped per the spec. A histogram's own label key le, which its
// buckets use, is written _le, and a family whose name is one a histogram
// writes its samples under (h_bucket, h_sum or h_count beside histogram
// h) is left out: the histogram owns it.

// WriteProm renders every registered metric in Prometheus text exposition
// format 0.0.4.
func (r *Registry) WriteProm(w io.Writer) error {
	type series struct {
		labels string // escaped {k="v",...} or ""
		m      any
	}
	type promFamily struct {
		name, base, kind, help string
		series                 []series
	}
	r.mu.RLock()
	fams := make([]promFamily, 0, len(r.fams))
	for name, f := range r.fams {
		_, labels := f.meta()
		keys := make([]string, len(labels))
		for i, l := range labels {
			keys[i] = promSanitizeLabel(l)
			if keys[i] == "le" && f.kind() == "histogram" {
				keys[i] = "_le"
			}
			for slices.Contains(keys[:i], keys[i]) {
				keys[i] += "_"
			}
		}
		pf := promFamily{name: name, base: promSanitizeName(name), kind: f.kind(), help: r.help[name]}
		f.each(func(k vecKey, m any) {
			pf.series = append(pf.series, series{labelBlock(keys, k, promEscape), m})
		})
		if len(pf.series) > 0 {
			fams = append(fams, pf)
		}
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool {
		a, b := fams[i], fams[j]
		return a.base < b.base || a.base == b.base && a.name < b.name
	})

	histSamples := map[string]bool{} // the sample names histograms write
	for _, f := range fams {
		if f.kind == "histogram" {
			histSamples[f.base+"_bucket"], histSamples[f.base+"_sum"], histSamples[f.base+"_count"] = true, true, true
		}
	}
	var b strings.Builder
	for i, f := range fams {
		if i > 0 && f.base == fams[i-1].base {
			continue // two names that sanitize alike: the first in name order wins
		}
		if histSamples[f.base] {
			continue
		}
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(f.base)
		if f.help != "" {
			b.WriteString(" ")
			b.WriteString(promHelpEscaper.Replace(f.help))
		} else {
			b.WriteString(" Gallery ")
			b.WriteString(f.kind)
			b.WriteString(" ")
			b.WriteString(f.base)
			b.WriteString(".")
		}
		b.WriteString("\n# TYPE ")
		b.WriteString(f.base)
		b.WriteString(" ")
		b.WriteString(f.kind)
		b.WriteString("\n")
		for _, s := range f.series {
			switch m := s.m.(type) {
			case *Counter:
				promSample(&b, f.base, s.labels, strconv.FormatInt(m.Value(), 10))
			case *Gauge:
				promSample(&b, f.base, s.labels, promFloat(m.Value()))
			case *Histogram:
				promHistogram(&b, f.base, s.labels, m)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func promSample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteString(" ")
	b.WriteString(value)
	b.WriteString("\n")
}

// promHistogram emits every bucket cumulatively (empty ones included),
// ending at le="+Inf", followed by _sum and _count.
func promHistogram(b *strings.Builder, base, labels string, h *Histogram) {
	// labels is "" or "{k=\"v\",...}"; the le label is appended inside.
	var cum int64
	writeBucket := func(le string, n int64) {
		b.WriteString(base)
		b.WriteString("_bucket{")
		if labels != "" {
			b.WriteString(labels[1 : len(labels)-1])
			b.WriteString(",")
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteString(`"} `)
		b.WriteString(strconv.FormatInt(n, 10))
		b.WriteString("\n")
	}
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeBucket(promFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	writeBucket("+Inf", cum)
	b.WriteString(base)
	b.WriteString("_sum")
	b.WriteString(labels)
	b.WriteString(" ")
	b.WriteString(promFloat(h.Sum()))
	b.WriteString("\n")
	b.WriteString(base)
	b.WriteString("_count")
	b.WriteString(labels)
	b.WriteString(" ")
	b.WriteString(strconv.FormatInt(h.Count(), 10))
	b.WriteString("\n")
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// promSanitizeName maps a base name into [a-zA-Z_:][a-zA-Z0-9_:]*.
func promSanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	ok := true
	for i := 0; i < len(s); i++ {
		if !promNameByte(s[i], i == 0) {
			ok = false
			break
		}
	}
	if ok {
		return s
	}
	out := []byte(s)
	for i := range out {
		if !promNameByte(out[i], i == 0) {
			out[i] = '_'
		}
	}
	return string(out)
}

func promNameByte(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

// promSanitizeLabel maps a label key into [a-zA-Z_][a-zA-Z0-9_]*.
func promSanitizeLabel(s string) string {
	if s == "" {
		return "_"
	}
	out := []byte(s)
	for i := range out {
		c := out[i]
		legal := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' ||
			(i > 0 && c >= '0' && c <= '9')
		if !legal {
			out[i] = '_'
		}
	}
	return string(out)
}

// promEscape escapes a label value per the exposition spec.
func promEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// promHelpEscaper escapes HELP text per the exposition format: backslash
// and newline only (quotes are legal there, unlike in label values).
var promHelpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// ValidateExposition parses a Prometheus text exposition payload and
// returns the first spec violation found, or nil. It checks name and
// label charsets, HELP/TYPE presence and ordering per family, sample
// value syntax, and histogram bucket structure (le parses, counts are
// cumulative, the series ends at le="+Inf", and _count matches it).
// Shared by the obs golden test and both daemons' endpoint tests.
func ValidateExposition(payload []byte) error {
	type histState struct {
		lastLe  float64
		lastN   int64
		infSeen bool
		infN    int64
		countN  int64
		hasCnt  bool
	}
	helpSeen := map[string]bool{}
	typeSeen := map[string]string{}
	hists := map[string]*histState{} // keyed by base + labels-minus-le

	lines := strings.Split(string(payload), "\n")
	for ln, line := range lines {
		where := func(msg string) error { return fmt.Errorf("line %d: %s: %q", ln+1, msg, line) }
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 {
				return where("malformed comment")
			}
			switch parts[1] {
			case "HELP":
				if !promValidName(parts[2]) {
					return where("bad family name in HELP")
				}
				if helpSeen[parts[2]] {
					return where("duplicate HELP")
				}
				helpSeen[parts[2]] = true
			case "TYPE":
				if len(parts) < 4 {
					return where("TYPE missing kind")
				}
				if !promValidName(parts[2]) {
					return where("bad family name in TYPE")
				}
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return where("unknown TYPE kind")
				}
				if _, dup := typeSeen[parts[2]]; dup {
					return where("duplicate TYPE")
				}
				typeSeen[parts[2]] = parts[3]
			default:
				// other comments are permitted
			}
			continue
		}

		name, labels, value, err := promParseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v: %q", ln+1, err, line)
		}
		if !promValidName(name) {
			return where("bad metric name")
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && typeSeen[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		if !helpSeen[base] {
			return where("sample before HELP for its family")
		}
		kind, ok := typeSeen[base]
		if !ok {
			return where("sample before TYPE for its family")
		}

		if kind != "histogram" {
			continue
		}
		le, rest := promTakeLe(labels)
		key := base + "|" + rest
		st := hists[key]
		if st == nil {
			st = &histState{lastLe: -1e308}
			hists[key] = st
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			if le == "" {
				return where("histogram bucket without le label")
			}
			n := int64(value)
			if le == "+Inf" {
				st.infSeen = true
				st.infN = n
				if n < st.lastN {
					return where("+Inf bucket smaller than previous bucket")
				}
				break
			}
			lv, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return where("unparseable le bound")
			}
			if st.infSeen {
				return where("finite bucket after +Inf")
			}
			if lv <= st.lastLe {
				return where("le bounds not ascending")
			}
			if n < st.lastN {
				return where("bucket counts not cumulative")
			}
			st.lastLe = lv
			st.lastN = n
		case strings.HasSuffix(name, "_count"):
			st.countN = int64(value)
			st.hasCnt = true
		}
	}
	for key, st := range hists {
		if !st.infSeen {
			return fmt.Errorf("histogram %s: no +Inf bucket", key)
		}
		if st.hasCnt && st.countN != st.infN {
			return fmt.Errorf("histogram %s: _count %d != +Inf bucket %d", key, st.countN, st.infN)
		}
	}
	return nil
}

// promParseSample splits "name{labels} value" (labels optional),
// validating label syntax and parsing the value.
func promParseSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		rest = rest[i:]
		end := promLabelsEnd(rest)
		if end < 0 {
			return "", "", 0, fmt.Errorf("unterminated label block")
		}
		labels = rest[:end+1]
		rest = rest[end+1:]
		if err := promCheckLabels(labels); err != nil {
			return "", "", 0, err
		}
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return "", "", 0, fmt.Errorf("sample missing value")
		}
		name = rest[:sp]
		rest = rest[sp:]
	}
	rest = strings.TrimLeft(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional timestamp
		return "", "", 0, fmt.Errorf("sample has %d trailing fields", len(fields))
	}
	value, err = strconv.ParseFloat(fields[0], 64) // accepts +Inf/-Inf/NaN
	if err != nil {
		return "", "", 0, fmt.Errorf("unparseable sample value")
	}
	return name, labels, value, nil
}

// promLabelsEnd finds the index of the closing '}' of a label block that
// starts at index 0, honoring quoted values and escapes.
func promLabelsEnd(s string) int {
	inQ := false
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQ {
				i++
			}
		case '"':
			inQ = !inQ
		case '}':
			if !inQ {
				return i
			}
		}
	}
	return -1
}

// promCheckLabels validates a {k="v",...} block.
func promCheckLabels(block string) error {
	body := block[1 : len(block)-1]
	var keys []string
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq <= 0 {
			return fmt.Errorf("label missing '='")
		}
		key := body[:eq]
		if !promValidLabelKey(key) {
			return fmt.Errorf("bad label key %q", key)
		}
		if slices.Contains(keys, key) {
			return fmt.Errorf("duplicate label key %q", key)
		}
		keys = append(keys, key)
		if eq+1 >= len(body) || body[eq+1] != '"' {
			return fmt.Errorf("label value not quoted")
		}
		rest := body[eq+2:]
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				if i+1 >= len(rest) {
					return fmt.Errorf("dangling escape in label value")
				}
				switch rest[i+1] {
				case '\\', '"', 'n':
				default:
					return fmt.Errorf("illegal escape \\%c", rest[i+1])
				}
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("unterminated label value")
		}
		body = rest[end+1:]
		if body == "" {
			break
		}
		if body[0] != ',' {
			return fmt.Errorf("expected ',' between labels")
		}
		body = body[1:]
	}
	return nil
}

func promValidName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !promNameByte(s[i], i == 0) {
			return false
		}
	}
	return true
}

func promValidLabelKey(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' ||
			(i > 0 && c >= '0' && c <= '9') {
			continue
		}
		return false
	}
	return true
}

// promTakeLe strips the le label from a block, returning its value and
// the remaining canonicalized block (series identity without le).
func promTakeLe(block string) (le, rest string) {
	if block == "" {
		return "", ""
	}
	body := block[1 : len(block)-1]
	var parts []string
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			break
		}
		key := body[:eq]
		after := body[eq+2:]
		end := -1
		for i := 0; i < len(after); i++ {
			if after[i] == '\\' {
				i++
				continue
			}
			if after[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			break
		}
		val := after[:end]
		if key == "le" {
			le = val
		} else {
			parts = append(parts, key+`="`+val+`"`)
		}
		body = strings.TrimPrefix(after[end+1:], ",")
	}
	if len(parts) == 0 {
		return le, ""
	}
	return le, "{" + strings.Join(parts, ",") + "}"
}
