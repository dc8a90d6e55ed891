package campaign

import (
	"fmt"
	"strings"

	"greedy80211/internal/experiments"
	"greedy80211/internal/metrics"
	"greedy80211/internal/runner"
)

// UnitResult is one unit of a spec read back from the store, decoded:
// the assembled form downstream consumers (cmd/report) work with, as
// opposed to assemble's raw byte streaming.
type UnitResult struct {
	Unit Unit
	Meta Meta
	// Result is the decoded artifact; re-encoding it with WriteJSON
	// reproduces the stored bytes exactly.
	Result *experiments.Result
	// Snapshots is the unit's telemetry sidecar, one snapshot per
	// RunSeeds batch in canonical order.
	Snapshots []*metrics.Snapshot
}

// MissingUnitsError reports which units of a spec have no store entry.
type MissingUnitsError struct {
	Missing []Unit
}

func (e *MissingUnitsError) Error() string {
	names := make([]string, 0, len(e.Missing))
	for _, u := range e.Missing {
		names = append(names, u.Name())
	}
	return fmt.Sprintf("campaign: store is missing %d units: %s",
		len(e.Missing), strings.Join(names, ", "))
}

// Results reads every unit of the spec back from the store, decoded, in
// work-list order. It never computes anything. The units are read and
// decoded concurrently on the runner's pool; a read or decode failure
// fails the call with the error of the lowest-index failing unit. If
// units are absent and every present one reads back, Results returns
// the present units with a *MissingUnitsError naming the absent ones,
// so callers can run the campaign first, or evaluate what is there and
// report exactly what is missing.
func Results(spec *Spec, store *Store) ([]UnitResult, error) {
	units, err := spec.Units()
	if err != nil {
		return nil, err
	}
	read, err := runner.Map(len(units), func(i int) (*UnitResult, error) {
		u := units[i]
		if !store.Has(u.Key) {
			return nil, nil
		}
		meta, resultJSON, metricsJSON, err := store.Get(u.Key)
		if err != nil {
			return nil, err
		}
		res, err := experiments.DecodeResult(resultJSON)
		if err != nil {
			return nil, fmt.Errorf("campaign: results %s: %w", u.Name(), err)
		}
		snaps, err := metrics.DecodeSnapshots(metricsJSON)
		if err != nil {
			return nil, fmt.Errorf("campaign: results %s: %w", u.Name(), err)
		}
		return &UnitResult{Unit: u, Meta: meta, Result: res, Snapshots: snaps}, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]UnitResult, 0, len(units))
	var missing []Unit
	for i, ur := range read {
		if ur == nil {
			missing = append(missing, units[i])
			continue
		}
		out = append(out, *ur)
	}
	if len(missing) > 0 {
		return out, &MissingUnitsError{Missing: missing}
	}
	return out, nil
}
