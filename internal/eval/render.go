package eval

import (
	"fmt"
	"io"
	"strings"
)

// RenderText writes the table in aligned plain text: one row per x-axis
// point, one column per algorithm, cells "mean ±std".
func RenderText(w io.Writer, t *Table) error {
	e := t.Experiment
	if _, err := fmt.Fprintf(w, "%s — %s (mean utility over %d reps)\n", e.ID, e.Title, t.Reps); err != nil {
		return err
	}
	headers := make([]string, 0, len(t.Series)+1)
	headers = append(headers, e.XLabel)
	for _, s := range t.Series {
		headers = append(headers, s.Algorithm)
	}
	rows := [][]string{headers}
	for p, pt := range e.Points {
		row := []string{pt.Label}
		for _, s := range t.Series {
			c := s.Cells[p]
			row = append(row, fmt.Sprintf("%.2f ±%.2f", c.Mean, c.Std))
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(headers))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " ")); err != nil {
			return err
		}
		if ri == 0 {
			total := 0
			for _, wd := range widths {
				total += wd
			}
			if _, err := fmt.Fprintln(w, strings.Repeat("-", total+2*(len(widths)-1))); err != nil {
				return err
			}
		}
	}
	return nil
}

// RenderCSV writes the table as CSV: x, algorithm, mean, std, n — the format
// plotting scripts consume to redraw the paper's figures.
func RenderCSV(w io.Writer, t *Table) error {
	if _, err := fmt.Fprintf(w, "experiment,x,x_label,algorithm,mean,std,n\n"); err != nil {
		return err
	}
	e := t.Experiment
	for p, pt := range e.Points {
		for _, s := range t.Series {
			c := s.Cells[p]
			if _, err := fmt.Fprintf(w, "%s,%g,%s,%s,%.6f,%.6f,%d\n",
				e.ID, pt.X, csvEscape(pt.Label), csvEscape(s.Algorithm), c.Mean, c.Std, c.N); err != nil {
				return err
			}
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// RenderRatioText writes the approximation-ratio experiment summary.
func RenderRatioText(w io.Writer, r *RatioResult) error {
	_, err := fmt.Fprintf(w,
		"ratio — empirical approximation ratio at alpha=%.2f over %d instances\n"+
			"  E[ALG]/OPT: mean %.3f, std %.3f, min %.3f (theorem floor at alpha=0.5: 0.25)\n"+
			"  max OPT/LP gap observed: %.3f (Lemma 1: always ≤ 1)\n",
		r.Alpha, r.Aggregate.N, r.Aggregate.Mean, r.Aggregate.Std, r.WorstCase, r.LPGapMax)
	return err
}

// RenderRatioCSV writes the approximation-ratio experiment as CSV: one row
// per non-degenerate instance (its E[ALG]/OPT, in generation order), then an
// "all" row with the aggregate's mean, std, minimum and count and the
// largest OPT/LP ratio observed.
func RenderRatioCSV(w io.Writer, r *RatioResult) error {
	if _, err := fmt.Fprintf(w, "experiment,instance,alpha,ratio,std,min,n,opt_over_lp_max\n"); err != nil {
		return err
	}
	for i, x := range r.PerInst {
		if _, err := fmt.Fprintf(w, "ratio,%d,%g,%.6f,0,%.6f,1,\n", i, r.Alpha, x, x); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "ratio,all,%g,%.6f,%.6f,%.6f,%d,%.6f\n",
		r.Alpha, r.Aggregate.Mean, r.Aggregate.Std, r.WorstCase, r.Aggregate.N, r.LPGapMax)
	return err
}
