package report

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"sort"
	"time"

	"greedy80211/internal/experiments"
	"greedy80211/internal/sim"
	"greedy80211/internal/stats"
)

// The golden values: one JSON file per gated artifact, checked in and
// compiled into the binary so a report run needs nothing but the code
// that produced it. Each file pins a handful of load-bearing data points
// of the artifact (the numbers EXPERIMENTS.md argues from) together with
// the paper's value where the paper states one, and a pass/fail
// tolerance band pair for stats.Classify.

//go:embed refdata/*.json
var embeddedRefdata embed.FS

// Config is the run profile the golden values were transcribed under.
// Every refdata file must declare the same profile: the report is one
// campaign, and golden values are only comparable to measurements taken
// at their own seeds × duration.
type Config struct {
	Seeds    int    `json:"seeds"`
	Duration string `json:"duration"`
	Quick    bool   `json:"quick,omitempty"`
}

// RunConfig converts the profile to an experiments.RunConfig.
func (c Config) RunConfig() (experiments.RunConfig, error) {
	cfg := experiments.RunConfig{Seeds: c.Seeds, Quick: c.Quick}
	if c.Duration != "" {
		d, err := time.ParseDuration(c.Duration)
		if err != nil {
			return cfg, fmt.Errorf("report: refdata duration: %w", err)
		}
		cfg.Duration = sim.Time(d.Nanoseconds())
	}
	return cfg, nil
}

// Check pins one data point of an artifact against a golden value.
type Check struct {
	// ID names the check within its artifact (kebab-case, unique).
	ID string `json:"id"`
	// Kind selects the extraction: "point" (series group/series/x),
	// "ratio" (series/denom at the same x, checked as series÷denom),
	// "cell" (table/row/col numeric), or "text" (table/row/col string
	// equality against WantText — pass or fail, no bands).
	Kind string `json:"kind"`

	// Point/ratio addressing.
	Group  int     `json:"group,omitempty"`
	Series string  `json:"series,omitempty"`
	Denom  string  `json:"denom,omitempty"`
	X      float64 `json:"x,omitempty"`

	// Cell/text addressing.
	Table int    `json:"table,omitempty"`
	Row   int    `json:"row,omitempty"`
	Col   string `json:"col,omitempty"`
	// Key guards cell lookups against row reordering (see Result.Cell).
	Key string `json:"key,omitempty"`

	// Paper is the value the paper reports for this point, when it states
	// one — display-only context, never gated on (the substrate differs).
	Paper *float64 `json:"paper,omitempty"`
	// Want is the golden value: what this repo measured at the declared
	// profile when the check was authored.
	Want float64 `json:"want,omitempty"`
	// WantText is the expected string for kind "text".
	WantText string `json:"want_text,omitempty"`
	// Pass is the tolerance band around Want within which the check
	// passes; Fail, when wider, bounds the drift region beyond which the
	// check fails outright (zero Fail: anything outside Pass fails).
	Pass stats.Band `json:"pass,omitempty"`
	Fail stats.Band `json:"fail,omitempty"`
	// ModelPass/ModelFail, when set, declare that the analytic tier
	// (internal/analytic.Predict) covers this check: the Markov-chain
	// prediction is classified against Want with these bands. They are
	// deliberately wider than Pass/Fail — the model omits capture,
	// transport dynamics, and finite-duration effects — and the verdict
	// is advisory: it never gates the reproduction, but cmd/report
	// -analytic-gate (CI's analytic-check step) fails when a declared
	// prediction goes missing. MODEL.md documents each covered check's
	// calibration and worst-case error.
	ModelPass stats.Band `json:"model_pass,omitempty"`
	ModelFail stats.Band `json:"model_fail,omitempty"`
	// Note says what claim the point carries, for the report table.
	Note string `json:"note,omitempty"`
}

// HasModel reports whether the analytic tier declares coverage of this
// check.
func (c *Check) HasModel() bool { return !c.ModelPass.IsZero() }

// RefSet is one artifact's golden-value file.
type RefSet struct {
	// Artifact is the registered artifact id; must match the file name.
	Artifact string `json:"artifact"`
	// Claim is the one-line paper claim this artifact reproduces.
	Claim string `json:"claim"`
	// Config is the run profile the golden values were measured at.
	Config Config  `json:"config"`
	Checks []Check `json:"checks"`
}

func (s *RefSet) validate() error {
	if s.Artifact == "" {
		return fmt.Errorf("report: refdata set has no artifact id")
	}
	if _, ok := experiments.Lookup(s.Artifact); !ok {
		return fmt.Errorf("report: refdata %s: unknown artifact", s.Artifact)
	}
	if len(s.Checks) == 0 {
		return fmt.Errorf("report: refdata %s: no checks", s.Artifact)
	}
	seen := make(map[string]bool, len(s.Checks))
	for i := range s.Checks {
		c := &s.Checks[i]
		if c.ID == "" {
			return fmt.Errorf("report: refdata %s: check %d has no id", s.Artifact, i)
		}
		if seen[c.ID] {
			return fmt.Errorf("report: refdata %s: duplicate check id %q", s.Artifact, c.ID)
		}
		seen[c.ID] = true
		where := fmt.Sprintf("report: refdata %s check %s", s.Artifact, c.ID)
		switch c.Kind {
		case "point":
			if c.Series == "" {
				return fmt.Errorf("%s: point check needs a series", where)
			}
		case "ratio":
			if c.Series == "" || c.Denom == "" {
				return fmt.Errorf("%s: ratio check needs series and denom", where)
			}
		case "cell":
			if c.Col == "" {
				return fmt.Errorf("%s: cell check needs a column", where)
			}
		case "text":
			if c.Col == "" || c.WantText == "" {
				return fmt.Errorf("%s: text check needs a column and want_text", where)
			}
		default:
			return fmt.Errorf("%s: unknown kind %q", where, c.Kind)
		}
		if c.Kind != "text" && c.Pass.IsZero() {
			return fmt.Errorf("%s: no pass band", where)
		}
		if c.Kind == "text" && c.HasModel() {
			return fmt.Errorf("%s: text checks cannot carry model bands", where)
		}
		if !c.ModelFail.IsZero() && c.ModelPass.IsZero() {
			return fmt.Errorf("%s: model_fail without model_pass", where)
		}
	}
	return nil
}

// loadFS reads every refdata/*.json under the fsys root, strictly
// (unknown fields are typos in a golden file and trailing data is a
// botched edit, and those must fail loudly), sorted by artifact id in
// registry order.
func loadFS(fsys fs.FS, dir string) ([]*RefSet, error) {
	entries, err := fs.ReadDir(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("report: refdata: %w", err)
	}
	var sets []*RefSet
	for _, e := range entries {
		if e.IsDir() || path.Ext(e.Name()) != ".json" {
			continue
		}
		raw, err := fs.ReadFile(fsys, path.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("report: refdata: %w", err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var s RefSet
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("report: refdata %s: %w", e.Name(), err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return nil, fmt.Errorf("report: refdata %s: trailing data after the set", e.Name())
		}
		if err := s.validate(); err != nil {
			return nil, err
		}
		want := s.Artifact + ".json"
		if e.Name() != want {
			return nil, fmt.Errorf("report: refdata %s declares artifact %s (rename to %s)",
				e.Name(), s.Artifact, want)
		}
		sets = append(sets, &s)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("report: no refdata files under %s", dir)
	}
	sort.Slice(sets, func(i, j int) bool {
		return artifactLess(sets[i].Artifact, sets[j].Artifact)
	})
	return sets, nil
}

// LoadEmbedded returns the checked-in golden set compiled into the
// binary — the set the repo's RESULTS.md and the CI gate run against.
func LoadEmbedded() ([]*RefSet, error) {
	return loadFS(embeddedRefdata, "refdata")
}

// LoadDir loads golden files from a directory instead of the embedded
// set. This is the override hook CI's negative test uses: tamper a copy
// of one file and assert the gate trips.
func LoadDir(dir string) ([]*RefSet, error) {
	return loadFS(os.DirFS(dir), ".")
}

// Artifacts lists the gated artifact ids in set order.
func Artifacts(sets []*RefSet) []string {
	ids := make([]string, len(sets))
	for i, s := range sets {
		ids[i] = s.Artifact
	}
	return ids
}

// SharedConfig returns the single run profile all sets agree on, or an
// error naming the first mismatch — mixed profiles would compare golden
// values against measurements they were never taken at.
func SharedConfig(sets []*RefSet) (Config, error) {
	if len(sets) == 0 {
		return Config{}, fmt.Errorf("report: no refdata sets")
	}
	cfg := sets[0].Config
	for _, s := range sets[1:] {
		if s.Config != cfg {
			return Config{}, fmt.Errorf("report: refdata %s profile %+v disagrees with %s profile %+v",
				s.Artifact, s.Config, sets[0].Artifact, cfg)
		}
	}
	if cfg.Seeds == 0 || cfg.Duration == "" {
		return Config{}, fmt.Errorf("report: refdata profile must pin seeds and duration explicitly, got %+v", cfg)
	}
	return cfg, nil
}
