package obs

// Exposition-format parsing: enough of the Prometheus text format (0.0.4)
// to serve three consumers — the metrics-lint test step, igepa-loadgen's
// end-of-run server-side summary, and the router's /cluster/metrics fan-in
// (which re-labels and re-exports each cluster shard's scrape). Values are kept as
// raw strings so a parse→relabel→re-emit round trip never reformats a
// float; the loadgen summary parses on demand.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed series line.
type Sample struct {
	// Name is the full sample name, including histogram suffixes
	// (_bucket/_sum/_count).
	Name string
	// Labels is the raw text between the braces ("" when unlabeled).
	Labels string
	// Value is the raw value string, preserved verbatim.
	Value string
}

// Float parses the sample value.
func (s Sample) Float() (float64, error) {
	switch s.Value {
	case "+Inf":
		return strconv.ParseFloat("+inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-inf", 64)
	}
	return strconv.ParseFloat(s.Value, 64)
}

// Label returns the value of one label key ("" when absent).
func (s Sample) Label(key string) string {
	rest := s.Labels
	for rest != "" {
		k, v, tail, err := nextLabel(rest)
		if err != nil {
			return ""
		}
		if k == key {
			return v
		}
		rest = tail
	}
	return ""
}

// Family is one parsed metric family: the TYPE/HELP header plus its
// samples, in input order.
type Family struct {
	Name    string
	Help    string
	Type    string // counter, gauge, histogram, summary, untyped ("" when no TYPE line)
	Samples []Sample
}

// ParseFamilies reads one exposition payload. Samples with no preceding
// TYPE line are grouped into an untyped family under their base name.
func ParseFamilies(r io.Reader) ([]Family, error) {
	var fams []*Family
	by := map[string]*Family{}
	get := func(name string) *Family {
		if f, ok := by[name]; ok {
			return f
		}
		f := &Family{Name: name}
		fams = append(fams, f)
		by[name] = f
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), " \t")
		switch {
		case text == "":
			continue
		case strings.HasPrefix(text, "# HELP "):
			rest := text[len("# HELP "):]
			name, help, _ := strings.Cut(rest, " ")
			if name == "" {
				return nil, fmt.Errorf("obs: line %d: HELP without a metric name", line)
			}
			get(name).Help = help
		case strings.HasPrefix(text, "# TYPE "):
			rest := text[len("# TYPE "):]
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return nil, fmt.Errorf("obs: line %d: malformed TYPE line %q", line, text)
			}
			f := get(name)
			if f.Type != "" {
				return nil, fmt.Errorf("obs: line %d: duplicate TYPE for %q", line, name)
			}
			f.Type = typ
		case strings.HasPrefix(text, "#"):
			continue // comment
		default:
			s, err := parseSample(text)
			if err != nil {
				return nil, fmt.Errorf("obs: line %d: %w", line, err)
			}
			f := get(baseName(s.Name, fams))
			f.Samples = append(f.Samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]Family, len(fams))
	for i, f := range fams {
		out[i] = *f
	}
	return out, nil
}

// baseName maps a sample name to its family name: histogram/summary
// suffixes fold into a declared parent family when one exists.
func baseName(name string, fams []*Family) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			for _, f := range fams {
				if f.Name == base && (f.Type == "histogram" || f.Type == "summary") {
					return base
				}
			}
		}
	}
	return name
}

func parseSample(text string) (Sample, error) {
	var s Sample
	brace := strings.IndexByte(text, '{')
	if brace >= 0 {
		end := strings.LastIndexByte(text, '}')
		if end < brace {
			return s, fmt.Errorf("unbalanced braces in %q", text)
		}
		s.Name = text[:brace]
		s.Labels = text[brace+1 : end]
		s.Value = strings.TrimSpace(text[end+1:])
	} else {
		name, val, ok := strings.Cut(text, " ")
		if !ok {
			return s, fmt.Errorf("sample without value: %q", text)
		}
		s.Name = name
		s.Value = strings.TrimSpace(val)
	}
	// A timestamp after the value is legal exposition; strip it.
	if i := strings.IndexByte(s.Value, ' '); i >= 0 {
		s.Value = s.Value[:i]
	}
	if s.Name == "" || s.Value == "" {
		return s, fmt.Errorf("malformed sample %q", text)
	}
	return s, nil
}

// nextLabel pops one k="v" pair off a raw label block, returning the
// unescaped value and the remaining tail (past the separating comma).
func nextLabel(raw string) (k, v, tail string, err error) {
	eq := strings.IndexByte(raw, '=')
	if eq < 0 {
		return "", "", "", fmt.Errorf("obs: label block %q: missing '='", raw)
	}
	k = strings.TrimSpace(raw[:eq])
	rest := raw[eq+1:]
	if len(rest) == 0 || rest[0] != '"' {
		return "", "", "", fmt.Errorf("obs: label %q: unquoted value", k)
	}
	rest = rest[1:]
	var b strings.Builder
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '\\':
			if i+1 >= len(rest) {
				return "", "", "", fmt.Errorf("obs: label %q: dangling escape", k)
			}
			i++
			switch rest[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(rest[i])
			}
		case '"':
			tail = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
			return k, b.String(), strings.TrimSpace(tail), nil
		default:
			b.WriteByte(rest[i])
		}
	}
	return "", "", "", fmt.Errorf("obs: label %q: unterminated value", k)
}

// labelKeys returns the sorted label keys of a raw block.
func labelKeys(raw string) ([]string, error) {
	var keys []string
	for raw != "" {
		k, _, tail, err := nextLabel(raw)
		if err != nil {
			return nil, err
		}
		keys = append(keys, k)
		raw = tail
	}
	sort.Strings(keys)
	return keys, nil
}
