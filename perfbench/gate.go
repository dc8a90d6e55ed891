package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"greedy80211/internal/analytic"
	"greedy80211/internal/experiments"
	"greedy80211/internal/metrics"
	"greedy80211/internal/report"
	"greedy80211/internal/scenario"
	"greedy80211/internal/trace"
)

// profile is the reproduction gate's pinned input: the embedded golden
// sets and the run profile they were transcribed under.
type profile struct {
	sets []*report.RefSet
	base experiments.RunConfig
	ids  []string
}

func loadProfile() (profile, error) {
	sets, err := report.LoadEmbedded()
	if err != nil {
		return profile{}, err
	}
	cfg, err := report.SharedConfig(sets)
	if err != nil {
		return profile{}, err
	}
	base, err := cfg.RunConfig()
	if err != nil {
		return profile{}, err
	}
	return profile{sets: sets, base: base, ids: report.Artifacts(sets)}, nil
}

// timedProfile is the set-up of the gate and forensics workloads.
func timedProfile() (profile, time.Duration, error) {
	t0 := time.Now()
	p, err := loadProfile()
	return p, time.Since(t0), err
}

// gateBench is the reproduction gate in-process: every gated artifact at
// the pinned profile, then the report stage over the results.
type gateBench struct {
	prof   profile
	golden []byte // committed verdicts.json without its module line
}

func newGate(root string) (*gateBench, error) {
	raw, err := os.ReadFile(filepath.Join(root, "verdicts.json"))
	if err != nil {
		return nil, fmt.Errorf("gate: reading the committed verdicts: %w", err)
	}
	return &gateBench{golden: stripModule(raw)}, nil
}

func (g *gateBench) setup(*tracer) (time.Duration, error) {
	p, d, err := timedProfile()
	g.prof = p
	return d, err
}

// stripModule drops the "module" line, the one verdicts.json line that
// names the binary rather than the measurements.
func stripModule(b []byte) []byte {
	var out bytes.Buffer
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), `"module":`) {
			out.WriteString(line)
		}
	}
	return out.Bytes()
}

func (g *gateBench) pass(tr *tracer) (sample, error) {
	s, rep, verdicts, err := runGate(g.prof, tr)
	if err != nil {
		return s, err
	}
	if rep.Pass != rep.Checks() || rep.ModelPass != rep.ModelChecks() {
		return s, fmt.Errorf("gate: %d/%d checks pass, %d/%d model checks pass",
			rep.Pass, rep.Checks(), rep.ModelPass, rep.ModelChecks())
	}
	if !bytes.Equal(stripModule(verdicts), g.golden) {
		return s, fmt.Errorf("gate: verdicts differ from the committed verdicts.json")
	}
	return s, nil
}

// runGate regenerates the profile's artifacts, evaluates them, and
// renders the Markdown report and the verdicts, which it returns.
func runGate(prof profile, tr *tracer) (sample, *report.Report, []byte, error) {
	s := sample{census: map[string]float64{}, layer: map[string]float64{}}
	pools := &scenario.PoolReport{}
	results := make(map[string]*experiments.Result, len(prof.ids))
	snaps := make(map[string][]*metrics.Snapshot, len(prof.ids))
	sw := startWatch()
	for _, id := range prof.ids {
		coll := metrics.NewCollector()
		rc := prof.base
		rc.Metrics = coll
		rc.Pools = pools
		ct, err := tr.call("experiments", "Run "+id, func() (err error) {
			results[id], err = experiments.Run(id, rc)
			return err
		})
		if err != nil {
			return s, nil, nil, err
		}
		snaps[id] = coll.Snapshots()
		s.layer["experiments."+id+".wall_s"] = secs(ct.wall)
		s.layer["experiments."+id+".cpu_s"] = secs(ct.cpu)
	}
	ws := startWatch()
	var rep *report.Report
	ct, err := tr.call("report", "Evaluate", func() (err error) {
		rep, err = report.Evaluate(prof.sets, results, snaps)
		return err
	})
	if err != nil {
		return s, nil, nil, err
	}
	s.layer["report.evaluate_s"] = secs(ct.wall)
	var md strings.Builder
	var verdicts bytes.Buffer
	ct, err = tr.call("report", "RenderMarkdown+WriteVerdicts", func() error {
		report.RenderMarkdown(&md, rep, nil)
		return report.WriteVerdicts(&verdicts, rep)
	})
	if err != nil {
		return s, nil, nil, err
	}
	s.layer["report.render_s"] = secs(ct.wall)
	s.warmWall, _ = ws.stop()
	s.wall, s.cpu = sw.stop()

	if tr != nil {
		// Evaluate predicts internally; the traced run times the model
		// tier on its own by predicting once more per artifact, outside
		// the pass's stopwatch so the tracing overhead leaves it out.
		for _, id := range prof.ids {
			ct, err := tr.call("analytic", "Predict "+id, func() error {
				_, err := analytic.Predict(id)
				return err
			})
			if err != nil {
				return s, nil, nil, err
			}
			s.layer["analytic.predict_s"] += secs(ct.wall)
		}
	}

	if err := poolCensus(s.census, pools); err != nil {
		return s, nil, nil, err
	}
	macCensus(s.census, flatten(snaps, prof.ids))
	s.events = s.census["sim.events_scheduled"]
	s.units = s.census["scenario.worlds"]
	s.warm = float64(len(prof.ids))
	if md.Len() == 0 {
		return s, nil, nil, fmt.Errorf("gate: empty Markdown report")
	}
	return s, rep, verdicts.Bytes(), nil
}

func flatten(snaps map[string][]*metrics.Snapshot, ids []string) []*metrics.Snapshot {
	var out []*metrics.Snapshot
	for _, id := range ids {
		out = append(out, snaps[id]...)
	}
	return out
}

// poolCensus reads the event, arrival, frame and packet pool checkouts
// and the world count out of a PoolReport's public summary, the only
// public view of its sums. It fails when a pool is missing from the
// summary, so a change to its format cannot zero the census unnoticed.
func poolCensus(c map[string]float64, r *scenario.PoolReport) error {
	keys := map[string]string{
		"events":   "sim.events_scheduled",
		"arrivals": "medium.arrivals",
		"frames":   "mac.frames",
		"packets":  "transport.packets",
	}
	found := 0
	for _, line := range strings.Split(r.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || keys[f[0]] == "" || !strings.HasPrefix(f[1], "gets=") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimPrefix(f[1], "gets="), 10, 64)
		if err != nil {
			return fmt.Errorf("pool summary: %q: %w", line, err)
		}
		c[keys[f[0]]] = float64(n)
		found++
	}
	if found != len(keys) {
		return fmt.Errorf("pool summary names %d of the %d pools:\n%s", found, len(keys), r)
	}
	c["scenario.worlds"] = float64(r.Worlds())
	return nil
}

// macCensus sums the MAC behaviour counters of telemetry snapshots.
func macCensus(c map[string]float64, snaps []*metrics.Snapshot) {
	var tx, retries, success, data float64
	for _, s := range snaps {
		for _, st := range s.Stations {
			tx += st.RTSSent + st.DataSent + st.ACKSent
			retries += st.Retries
			success += st.MSDUSuccess
			data += st.DataSent
		}
	}
	c["mac.tx"] = tx
	c["mac.retries"] = retries
	c["mac.msdu_success"] = success
	c["mac.success_ratio"] = ratio(success, data)
}

// forensicsBench is `trace check` over the gated artifacts: the gate's
// own worlds with the flight recorder and the invariant checker on. After
// each artifact it reads back what trace check reads: the violation
// count and the recordings in canonical order.
type forensicsBench struct {
	prof profile
}

func (f *forensicsBench) setup(*tracer) (time.Duration, error) {
	p, d, err := timedProfile()
	f.prof = p
	return d, err
}

func (f *forensicsBench) pass(tr *tracer) (sample, error) {
	s := sample{census: map[string]float64{}, layer: map[string]float64{}}
	pools := &scenario.PoolReport{}
	var violations, events, dropped, recordings float64
	sw := startWatch()
	for _, id := range f.prof.ids {
		coll := trace.NewCollector(0)
		coll.EnableChecks()
		rc := f.prof.base
		rc.Trace = coll
		rc.Pools = pools
		ct, err := tr.call("experiments", "Run "+id, func() error {
			_, err := experiments.Run(id, rc)
			return err
		})
		if err != nil {
			return s, err
		}
		s.layer["experiments."+id+".wall_s"] = secs(ct.wall)
		s.layer["experiments."+id+".cpu_s"] = secs(ct.cpu)
		violations += float64(coll.ViolationCount())

		ws := startWatch()
		var recs []*trace.Recording
		ct, _ = tr.call("trace", "Recordings "+id, func() error {
			recs = coll.Recordings()
			return nil
		})
		wall, _ := ws.stop()
		s.warmWall += wall
		s.layer["trace.recordings_s"] += secs(ct.wall)
		for _, r := range recs {
			events += float64(r.Recorder.Total())
			dropped += float64(r.Recorder.Dropped())
		}
		recordings += float64(len(recs))
	}
	s.wall, s.cpu = sw.stop()

	if err := poolCensus(s.census, pools); err != nil {
		return s, err
	}
	s.census["trace.events"] = events
	s.census["trace.dropped"] = dropped
	s.census["trace.violations"] = violations
	s.events = s.census["sim.events_scheduled"]
	s.units = s.census["scenario.worlds"]
	s.warm = recordings
	if violations > 0 {
		return s, fmt.Errorf("forensics: %v invariant violations", violations)
	}
	if recordings == 0 || events == 0 {
		return s, fmt.Errorf("forensics: %v recordings, %v events recorded", recordings, events)
	}
	return s, nil
}
