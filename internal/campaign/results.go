package campaign

import (
	"fmt"
	"strings"

	"greedy80211/internal/experiments"
	"greedy80211/internal/metrics"
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
// work-list order. It never computes anything: if any unit is absent it
// fails with a *MissingUnitsError naming them all, so callers can either
// run the campaign first or report exactly what is missing.
func Results(spec *Spec, store *Store) ([]UnitResult, error) {
	units, err := spec.Units()
	if err != nil {
		return nil, err
	}
	var missing []Unit
	for _, u := range units {
		if !store.Has(u.Key) {
			missing = append(missing, u)
		}
	}
	if len(missing) > 0 {
		return nil, &MissingUnitsError{Missing: missing}
	}
	out := make([]UnitResult, 0, len(units))
	for _, u := range units {
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
		out = append(out, UnitResult{Unit: u, Meta: meta, Result: res, Snapshots: snaps})
	}
	return out, nil
}
