package obs

// Cluster fan-in: the router scrapes each shard's /metrics and re-exports
// the union at /cluster/metrics with a shard="<index>" label, so one scrape
// sees the whole cluster. Families with the same name across shards merge
// under one HELP/TYPE header (emitting the header once per name is what
// keeps the merged payload valid exposition); sample values are re-emitted
// verbatim, never re-parsed into floats, so fan-in cannot reformat a value.

import (
	"fmt"
	"io"
	"strings"
)

// MergeRelabeled writes the union of several parsed scrapes, injecting one
// extra label pair into every sample of each source. sources preserves
// order: families appear in first-seen order, and within a family the
// sources' samples appear in source order.
func MergeRelabeled(w io.Writer, key string, sources []RelabeledSource) error {
	type merged struct {
		help, typ string
		lines     []string
	}
	var order []string
	fams := map[string]*merged{}
	for _, src := range sources {
		pair := key + `="` + escapeValue(src.Value) + `"`
		for _, f := range src.Families {
			m, ok := fams[f.Name]
			if !ok {
				m = &merged{help: f.Help, typ: f.Type}
				fams[f.Name] = m
				order = append(order, f.Name)
			}
			for _, s := range f.Samples {
				labels := pair
				if s.Labels != "" {
					labels += "," + renameLabel(s.Labels, key)
				}
				m.lines = append(m.lines, fmt.Sprintf("%s{%s} %s", s.Name, labels, s.Value))
			}
		}
	}
	var b strings.Builder
	for _, name := range order {
		m := fams[name]
		b.Reset()
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, m.help)
		}
		if m.typ != "" {
			fmt.Fprintf(&b, "# TYPE %s %s\n", name, m.typ)
		}
		for _, l := range m.lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// RelabeledSource is one upstream scrape plus the label value identifying
// it (the shard index, for /cluster/metrics).
type RelabeledSource struct {
	Value    string
	Families []Family
}

// renameLabel rewrites any existing `key="…"` pair in a raw label string to
// `exported_key="…"` — the Prometheus federation convention when the
// fan-in's own label collides with one the source already exposes (a
// backend's per-queue shard gauge vs the cluster's shard index). The
// source's value stays visible; the merged exposition stays lint-clean.
func renameLabel(labels, key string) string {
	target := key + `="`
	var b strings.Builder
	i := 0
	for i < len(labels) {
		if strings.HasPrefix(labels[i:], target) {
			b.WriteString("exported_")
			b.WriteString(target)
			i += len(target)
		} else {
			// copy the label name through its opening `="`
			j := strings.Index(labels[i:], `="`)
			if j < 0 {
				b.WriteString(labels[i:])
				return b.String()
			}
			b.WriteString(labels[i : i+j+2])
			i += j + 2
		}
		// copy the quoted value, honoring backslash escapes
		for i < len(labels) {
			c := labels[i]
			b.WriteByte(c)
			i++
			if c == '\\' && i < len(labels) {
				b.WriteByte(labels[i])
				i++
				continue
			}
			if c == '"' {
				break
			}
		}
		if i < len(labels) && labels[i] == ',' {
			b.WriteByte(',')
			i++
		}
	}
	return b.String()
}
