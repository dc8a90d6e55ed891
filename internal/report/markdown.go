package report

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"greedy80211/internal/metrics"
	"greedy80211/internal/stats"
)

// RenderMarkdown writes the full RESULTS.md document. Byte stability is
// the contract: the output is a pure function of the Report (itself a
// pure function of code + refdata), so the committed file regenerates
// identically and CI can diff it. The third parameter is ignored; it is
// kept only so perfbench's existing three-argument call still compiles.
func RenderMarkdown(w *strings.Builder, rep *Report, _ any) {
	fmt.Fprintf(w, "# Reproduction report\n\n")
	fmt.Fprintf(w, "Golden-value gate for \"Greedy Receivers in IEEE 802.11 Hotspots\" (DSN'07):\n")
	fmt.Fprintf(w, "each gated artifact is regenerated at a pinned profile and its\n")
	fmt.Fprintf(w, "load-bearing data points are checked against `internal/report/refdata/`\n")
	fmt.Fprintf(w, "tolerance bands. Generated by `cmd/report`; do not edit by hand.\n\n")

	renderSummary(w, rep)
	renderModelSummary(w, rep)
	for _, ar := range rep.Artifacts {
		renderArtifact(w, ar)
	}
	renderFooter(w, rep)
}

func renderSummary(w *strings.Builder, rep *Report) {
	fmt.Fprintf(w, "## Summary\n\n")
	fmt.Fprintf(w, "**%d checks over %d artifacts: %d pass, %d drift, %d fail, %d missing.**\n\n",
		rep.Checks(), len(rep.Artifacts), rep.Pass, rep.Drift, rep.Fail, rep.Missing)
	fmt.Fprintf(w, "| artifact | paper | checks | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|\n")
	for _, ar := range rep.Artifacts {
		pass := 0
		for _, c := range ar.Checks {
			if c.Verdict == stats.VerdictPass {
				pass++
			}
		}
		fmt.Fprintf(w, "| [`%s`](#%s) | %s | %d/%d | %s |\n",
			ar.Artifact, ar.Artifact, ar.Paper, pass, len(ar.Checks), verdictLabel(ar.Verdict()))
	}
	w.WriteByte('\n')
}

// renderModelSummary reports the advisory analytic tier: how the
// Markov-chain model (MODEL.md) classifies against the same golden
// values, under its own wider bands.
func renderModelSummary(w *strings.Builder, rep *Report) {
	if rep.ModelChecks() == 0 {
		return
	}
	fmt.Fprintf(w, "**Analytic tier (advisory):** %d model-covered checks: %d pass, %d drift, %d fail, %d missing.\n",
		rep.ModelChecks(), rep.ModelPass, rep.ModelDrift, rep.ModelFail, rep.ModelMissing)
	fmt.Fprintf(w, "Model verdicts compare the [MODEL.md](MODEL.md) Markov-chain predictions against the\n")
	fmt.Fprintf(w, "golden values under their own wider bands; they never gate the reproduction, but\n")
	fmt.Fprintf(w, "`cmd/report -analytic-gate` fails if a declared prediction goes missing.\n\n")
}

func renderArtifact(w *strings.Builder, ar *ArtifactReport) {
	// The <a id> anchor keeps the summary links stable regardless of how
	// a renderer slugs the heading text.
	fmt.Fprintf(w, "<a id=\"%s\"></a>\n", ar.Artifact)
	fmt.Fprintf(w, "## %s — %s\n\n", ar.Artifact, ar.Title)
	fmt.Fprintf(w, "**Paper:** %s · **Claim:** %s\n\n", ar.Paper, ar.Claim)
	if ar.Result == nil {
		fmt.Fprintf(w, "*No measurement available (artifact absent from the store).*\n\n")
	} else {
		renderTrends(w, ar)
	}
	fmt.Fprintf(w, "| check | where | paper | golden | measured | Δ | band | verdict | model | model Δ | model verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, c := range ar.Checks {
		renderCheckRow(w, c)
	}
	w.WriteByte('\n')
	if lo, hi := metrics.UtilizationBounds(ar.Snapshots); !math.IsNaN(lo) {
		fmt.Fprintf(w, "Telemetry: channel utilization %s–%s across %d snapshot groups.\n\n",
			fmtNum(lo), fmtNum(hi), len(ar.Snapshots))
	}
}

// renderTrends draws one sparkline per series so a reader sees the
// curve's shape, not just the pinned points.
func renderTrends(w *strings.Builder, ar *ArtifactReport) {
	for gi, g := range ar.Result.Series {
		label := g.Caption
		if label == "" {
			label = fmt.Sprintf("group %d", gi)
		}
		fmt.Fprintf(w, "Trend (%s; x: %s):\n\n", label, g.XLabel)
		fmt.Fprintf(w, "| series | shape | min | max |\n")
		fmt.Fprintf(w, "|---|---|---|---|\n")
		for _, s := range g.Series {
			ys := make([]float64, len(s.Points))
			for i, p := range s.Points {
				ys[i] = p.Y
			}
			lo, hi := bounds(ys)
			fmt.Fprintf(w, "| `%s` | `%s` | %s | %s |\n",
				s.Name, sparkline(ys), fmtNum(lo), fmtNum(hi))
		}
		w.WriteByte('\n')
	}
}

func renderCheckRow(w *strings.Builder, c CheckResult) {
	paper := "—"
	if c.Paper != nil {
		paper = fmtNum(*c.Paper)
	}
	var golden, measured, delta, band string
	if c.Kind == "text" {
		golden = "`" + c.WantText + "`"
		if c.GotText == "" {
			measured = "—"
		} else {
			measured = "`" + c.GotText + "`"
		}
		delta, band = "—", "exact"
	} else {
		golden = fmtNum(c.Want)
		measured = fmtNum(c.Got)
		delta = fmtDelta(c.Got, c.Want)
		band = c.Pass.String()
		if !c.Fail.IsZero() {
			band += " / " + c.Fail.String()
		}
	}
	name := c.ID
	if c.Note != "" {
		name = fmt.Sprintf("%s<br><sub>%s</sub>", c.ID, c.Note)
	}
	// The model columns stay blank for checks outside the analytic
	// tier's declared coverage (no model bands in refdata).
	model, modelDelta, modelVerdict := "—", "—", "—"
	if c.HasModel() {
		model = fmtNum(c.Model)
		modelDelta = fmtDelta(c.Model, c.Want)
		modelVerdict = verdictLabel(c.ModelVerdict)
	}
	fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s | %s | %s | %s | %s | %s |\n",
		name, checkWhere(c.Check), paper, golden, measured, delta, band, verdictLabel(c.Verdict),
		model, modelDelta, modelVerdict)
}

// checkWhere renders the check's address in the artifact.
func checkWhere(c Check) string {
	switch c.Kind {
	case "point":
		return fmt.Sprintf("`%s` @ x=%s, group %d", c.Series, fmtNum(c.X), c.Group)
	case "ratio":
		return fmt.Sprintf("`%s` ÷ `%s` @ x=%s, group %d", c.Series, c.Denom, fmtNum(c.X), c.Group)
	default: // cell, text
		where := fmt.Sprintf("table %d row %d `%s`", c.Table, c.Row, c.Col)
		if c.Key != "" {
			where = fmt.Sprintf("table %d `%s` of \"%s\"", c.Table, c.Col, c.Key)
		}
		return where
	}
}

func renderFooter(w *strings.Builder, rep *Report) {
	fmt.Fprintf(w, "---\n\n")
	fmt.Fprintf(w, "*Module:* `%s` · *profile:* seeds=%d, duration=%s",
		rep.Module, rep.Config.Seeds, rep.Config.Duration)
	if rep.Config.Quick {
		fmt.Fprintf(w, ", quick")
	}
	w.WriteByte('\n')
	fmt.Fprintf(w, "\n*Regenerate:* `go run ./cmd/report -store .report-store` — byte-identical\n")
	fmt.Fprintf(w, "on a warm store; see [EXPERIMENTS.md](EXPERIMENTS.md) for the artifact↔paper map.\n")
}

func verdictLabel(v stats.Verdict) string {
	switch v {
	case stats.VerdictPass:
		return "✅ pass"
	case stats.VerdictDrift:
		return "⚠️ drift"
	case stats.VerdictFail:
		return "❌ fail"
	default:
		return "❓ missing"
	}
}

// fmtNum renders values compactly and deterministically: up to 4
// significant digits, plain notation for human-scale magnitudes.
func fmtNum(v float64) string {
	if math.IsNaN(v) {
		return "—"
	}
	a := math.Abs(v)
	if a != 0 && (a < 1e-3 || a >= 1e6) {
		return strconv.FormatFloat(v, 'e', 3, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// fmtDelta is the relative deviation of got from want, or the absolute
// one when want is 0.
func fmtDelta(got, want float64) string {
	if math.IsNaN(got) || math.IsNaN(want) {
		return "—"
	}
	if want == 0 {
		return fmtNum(got) + " abs"
	}
	return fmt.Sprintf("%+.1f%%", (got-want)/math.Abs(want)*100)
}

// sparkRamp is the 8-level block ramp sparklines draw with.
var sparkRamp = []rune("▁▂▃▄▅▆▇█")

// sparkline maps ys onto the block ramp, scaled to the series' own
// min..max (a flat series renders mid-ramp; NaN renders as "·").
func sparkline(ys []float64) string {
	lo, hi := bounds(ys)
	var b strings.Builder
	for _, y := range ys {
		switch {
		case math.IsNaN(y):
			b.WriteRune('·')
		case hi == lo:
			b.WriteRune(sparkRamp[3])
		default:
			lvl := int((y - lo) / (hi - lo) * float64(len(sparkRamp)-1))
			if lvl < 0 {
				lvl = 0
			}
			if lvl >= len(sparkRamp) {
				lvl = len(sparkRamp) - 1
			}
			b.WriteRune(sparkRamp[lvl])
		}
	}
	return b.String()
}

func bounds(ys []float64) (lo, hi float64) {
	lo, hi = math.NaN(), math.NaN()
	for _, y := range ys {
		if math.IsNaN(y) {
			continue
		}
		if math.IsNaN(lo) || y < lo {
			lo = y
		}
		if math.IsNaN(hi) || y > hi {
			hi = y
		}
	}
	return lo, hi
}
