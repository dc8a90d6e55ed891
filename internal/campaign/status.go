package campaign

import (
	"fmt"
	"sort"
)

// UnitStatus is one unit's standing against a store.
type UnitStatus struct {
	Unit Unit
	// Done: committed in the store. InFlight: the journal shows a start
	// with no later commit and no store entry — the unit was being
	// computed when a previous run died. Screened: the journal's latest
	// word on the unit is a model-screening disposition and the store
	// still has no entry.
	Done, InFlight, Screened bool
}

// UnitState labels a unit's standing in the shared status codec.
type UnitState string

const (
	// UnitDone: the unit is committed in the store.
	UnitDone UnitState = "done"
	// UnitInterrupted: journaled as started, never finished, absent from
	// the store — in flight when a previous run died.
	UnitInterrupted UnitState = "interrupted"
	// UnitLeased: held by a live campaignd worker (server-side only; the
	// CLI never reports it because lease state lives in the server).
	UnitLeased UnitState = "leased"
	// UnitFailed: the server gave up on the unit after repeated worker
	// failures (server-side only).
	UnitFailed UnitState = "failed"
	// UnitScreened: absent from the store, but the journal records a
	// model-screening disposition — the analytic model vouched for the
	// unit's previous-module result, so recomputation was deferred.
	UnitScreened UnitState = "screened"
	// UnitPending: not computed and not claimed.
	UnitPending UnitState = "pending"
)

// UnitStatusDoc is one unit in the shared status codec.
type UnitStatusDoc struct {
	Name     string    `json:"name"`
	Artifact string    `json:"artifact"`
	BaseSeed int64     `json:"base_seed"`
	Key      string    `json:"key"`
	State    UnitState `json:"state"`
}

// StatusDoc is the status codec shared verbatim by `campaign status
// -json` and campaignd's GET /v1/campaigns/{id}: one struct, one JSON
// shape, so the CLI and the HTTP surface can never drift apart.
type StatusDoc struct {
	Total       int             `json:"total"`
	Done        int             `json:"done"`
	Leased      int             `json:"leased"`
	Interrupted int             `json:"interrupted"`
	Failed      int             `json:"failed"`
	Screened    int             `json:"screened"`
	Pending     int             `json:"pending"`
	Units       []UnitStatusDoc `json:"units"`
}

// NewStatusDoc converts per-unit standings into the shared codec.
func NewStatusDoc(sts []UnitStatus) *StatusDoc {
	doc := &StatusDoc{Units: make([]UnitStatusDoc, len(sts))}
	for i, st := range sts {
		state := UnitPending
		switch {
		case st.Done:
			state = UnitDone
		case st.InFlight:
			state = UnitInterrupted
		case st.Screened:
			state = UnitScreened
		}
		doc.Units[i] = UnitStatusDoc{
			Name:     st.Unit.Name(),
			Artifact: st.Unit.Artifact,
			BaseSeed: st.Unit.BaseSeed,
			Key:      st.Unit.Key,
			State:    state,
		}
	}
	doc.Recount()
	return doc
}

// Recount recomputes the summary counters from the per-unit states.
// campaignd overlays lease/failure states on the units and calls this to
// keep the totals honest.
func (d *StatusDoc) Recount() {
	d.Total = len(d.Units)
	d.Done, d.Leased, d.Interrupted, d.Failed, d.Screened, d.Pending = 0, 0, 0, 0, 0, 0
	for _, u := range d.Units {
		switch u.State {
		case UnitDone:
			d.Done++
		case UnitLeased:
			d.Leased++
		case UnitInterrupted:
			d.Interrupted++
		case UnitFailed:
			d.Failed++
		case UnitScreened:
			d.Screened++
		default:
			d.Pending++
		}
	}
}

// Status reports every unit of the spec against the store.
func Status(spec *Spec, store *Store) ([]UnitStatus, error) {
	units, err := spec.Units()
	if err != nil {
		return nil, err
	}
	spans, err := ReadSpans(store.JournalPath())
	if err != nil {
		return nil, err
	}
	started := make(map[string]bool)
	screened := make(map[string]bool)
	for _, sp := range spans {
		switch sp.Phase {
		case "start":
			started[sp.Key] = true
			delete(screened, sp.Key)
		case "commit":
			delete(started, sp.Key)
		case "screened":
			screened[sp.Key] = true
		}
	}
	out := make([]UnitStatus, len(units))
	for i, u := range units {
		done := store.Has(u.Key)
		out[i] = UnitStatus{
			Unit:     u,
			Done:     done,
			InFlight: !done && started[u.Key],
			Screened: !done && !started[u.Key] && screened[u.Key],
		}
	}
	return out, nil
}

// GCReport summarizes a garbage collection pass.
type GCReport struct {
	Kept, Deleted int
	DeletedKeys   []string
}

// GC deletes every store entry not referenced by the spec (old module
// versions, abandoned configs). With dryRun it only reports what would
// go. The journal is left alone — it is history, and resume never
// trusts it over the store.
func GC(spec *Spec, store *Store, dryRun bool) (*GCReport, error) {
	units, err := spec.Units()
	if err != nil {
		return nil, err
	}
	keep := make(map[string]bool, len(units))
	for _, u := range units {
		keep[u.Key] = true
	}
	keys, err := store.Keys()
	if err != nil {
		return nil, err
	}
	rep := &GCReport{}
	for _, key := range keys {
		if keep[key] {
			rep.Kept++
			continue
		}
		if !dryRun {
			if err := store.Delete(key); err != nil {
				return rep, err
			}
		}
		rep.Deleted++
		rep.DeletedKeys = append(rep.DeletedKeys, key)
	}
	sort.Strings(rep.DeletedKeys)
	return rep, nil
}

// Verify checks every committed entry in the store and returns the
// errors found (empty means the store is sound).
func Verify(store *Store) ([]error, error) {
	keys, err := store.Keys()
	if err != nil {
		return nil, err
	}
	var bad []error
	for _, key := range keys {
		if err := store.VerifyEntry(key); err != nil {
			bad = append(bad, fmt.Errorf("%s: %w", key[:12], err))
		}
	}
	return bad, nil
}
