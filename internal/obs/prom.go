package obs

import (
	"fmt"
	"io"
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
// Registry metric names are "flat": labels are pre-rendered into the map
// key (base{k="v"}). The writer parses them back apart so series sharing
// a base name are grouped into one family with a single HELP/TYPE pair,
// as the spec requires. Base names and label keys are sanitized to the
// legal charsets; label values are escaped per the spec.

// promSeries is one parsed flat metric name.
type promSeries struct {
	labels string // canonical re-rendered {k="v",...} or ""
	c      *Counter
	g      float64
	h      *Histogram
}

type promFamily struct {
	kind   string // "counter" | "gauge" | "histogram"
	series map[string]*promSeries
}

// WriteProm renders every registered metric in Prometheus text exposition
// format 0.0.4.
func (r *Registry) WriteProm(w io.Writer) error {
	fams := make(map[string]*promFamily)
	addRaw := func(base, labels, kind string) *promSeries {
		f := fams[base]
		if f == nil {
			f = &promFamily{kind: kind, series: make(map[string]*promSeries)}
			fams[base] = f
		} else if f.kind != kind {
			// A base name claimed by two metric kinds cannot be exposed as
			// one family; first kind wins, the clashing series is dropped.
			return nil
		}
		s := &promSeries{labels: labels}
		f.series[base+labels] = s
		return s
	}
	add := func(flat, kind string) *promSeries {
		base, labels := promParseName(flat)
		return addRaw(base, labels, kind)
	}
	// Vector children skip the flat-name parse: their raw label values are
	// escaped directly, so values the flat rendering cannot round-trip
	// (embedded quotes) still expose correctly.
	vecLabels := func(c *vecCore, k vecKey) string {
		var b strings.Builder
		b.WriteByte('{')
		b.WriteString(promSanitizeLabel(c.labels[0]))
		b.WriteString(`="`)
		b.WriteString(promEscape(k.a))
		b.WriteByte('"')
		if len(c.labels) == 2 {
			b.WriteByte(',')
			b.WriteString(promSanitizeLabel(c.labels[1]))
			b.WriteString(`="`)
			b.WriteString(promEscape(k.b))
			b.WriteByte('"')
		}
		b.WriteByte('}')
		return b.String()
	}

	r.mu.RLock()
	for name, c := range r.counters {
		if s := add(name, "counter"); s != nil {
			s.c = c
		}
	}
	for name, g := range r.gauges {
		if s := add(name, "gauge"); s != nil {
			s.g = g.Value()
		}
	}
	for name, fn := range r.gaugeFuncs {
		if s := add(name, "gauge"); s != nil {
			s.g = fn()
		}
	}
	for name, h := range r.hists {
		if s := add(name, "histogram"); s != nil {
			s.h = h
		}
	}
	for _, v := range r.counterVecs {
		base := promSanitizeName(v.base)
		v.mu.RLock()
		for k, c := range v.children {
			if s := addRaw(base, vecLabels(&v.vecCore, k), "counter"); s != nil {
				s.c = c
			}
		}
		if v.overflow != nil {
			if s := addRaw(base, vecLabels(&v.vecCore, v.overflowKey()), "counter"); s != nil {
				s.c = v.overflow
			}
		}
		v.mu.RUnlock()
	}
	for _, v := range r.histVecs {
		base := promSanitizeName(v.base)
		v.mu.RLock()
		for k, h := range v.children {
			if s := addRaw(base, vecLabels(&v.vecCore, k), "histogram"); s != nil {
				s.h = h
			}
		}
		if v.overflow != nil {
			if s := addRaw(base, vecLabels(&v.vecCore, v.overflowKey()), "histogram"); s != nil {
				s.h = v.overflow
			}
		}
		v.mu.RUnlock()
	}
	help := make(map[string]string, len(r.help))
	for base, text := range r.help {
		help[promSanitizeName(base)] = text
	}
	r.mu.RUnlock()

	bases := make([]string, 0, len(fams))
	for b := range fams {
		bases = append(bases, b)
	}
	sort.Strings(bases)

	var b strings.Builder
	for _, base := range bases {
		f := fams[base]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)

		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(base)
		if text, ok := help[base]; ok {
			b.WriteString(" ")
			b.WriteString(promHelpEscaper.Replace(text))
		} else {
			b.WriteString(" Gallery ")
			b.WriteString(f.kind)
			b.WriteString(" ")
			b.WriteString(base)
			b.WriteString(".")
		}
		b.WriteString("\n# TYPE ")
		b.WriteString(base)
		b.WriteString(" ")
		b.WriteString(f.kind)
		b.WriteString("\n")
		for _, k := range keys {
			s := f.series[k]
			switch f.kind {
			case "counter":
				b.WriteString(base)
				b.WriteString(s.labels)
				b.WriteString(" ")
				b.WriteString(strconv.FormatInt(s.c.Value(), 10))
				b.WriteString("\n")
			case "gauge":
				b.WriteString(base)
				b.WriteString(s.labels)
				b.WriteString(" ")
				b.WriteString(promFloat(s.g))
				b.WriteString("\n")
			case "histogram":
				promHistogram(&b, base, s.labels, s.h)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
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

// promParseName splits a flat registry name (base{k="v",...} or plain
// base) into a sanitized base and canonically re-rendered, escaped label
// block. The base never contains '{', so the first brace starts labels.
func promParseName(flat string) (base, labels string) {
	i := strings.IndexByte(flat, '{')
	if i < 0 {
		return promSanitizeName(flat), ""
	}
	base = promSanitizeName(flat[:i])
	body := flat[i:]
	if len(body) < 2 || body[len(body)-1] != '}' {
		return base, ""
	}
	body = body[1 : len(body)-1]

	// Quote-aware split of k="v" pairs; values may contain ',', '{', '}'.
	var b strings.Builder
	b.Grow(len(body) + 8)
	b.WriteByte('{')
	first := true
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			break
		}
		key := promSanitizeLabel(body[:eq])
		rest := body[eq+2:]
		end := -1
		for j := 0; j < len(rest); j++ {
			if rest[j] == '"' {
				end = j
				break
			}
		}
		if end < 0 {
			break
		}
		val := rest[:end]
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(key)
		b.WriteString(`="`)
		b.WriteString(promEscape(val))
		b.WriteByte('"')
		body = rest[end+1:]
		body = strings.TrimPrefix(body, ",")
	}
	if first {
		return base, ""
	}
	b.WriteByte('}')
	return base, b.String()
}

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
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq <= 0 {
			return fmt.Errorf("label missing '='")
		}
		key := body[:eq]
		if !promValidLabelKey(key) {
			return fmt.Errorf("bad label key %q", key)
		}
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
