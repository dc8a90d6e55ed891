// Package campaignd is the campaign results service: a long-running
// stdlib net/http server over the content-addressed campaign store. It
// serves cached results, metrics snapshots, gate verdicts, and trace
// renders as conditional (ETag / If-None-Match) JSON — warm readers cost
// one stat — and turns the store's deterministic work-list into a
// multi-host compute fabric: campaign specs POSTed to the server are
// expanded server-side, and worker processes pull per-unit leases over
// HTTP, heartbeat while computing, and upload results; a lease that
// stops heartbeating expires and its unit is re-issued, so a dead worker
// never strands a campaign. Persistence goes through campaign.Backend,
// so the same server runs unchanged on the local-directory store today
// and an object store later.
package campaignd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"greedy80211/internal/campaign"
)

// WireUnit is one work-list unit on the wire: everything a worker needs
// to recompute the unit and nothing it has to guess. Config is the
// normalized RunConfig in its JSON (SpecConfig) form; Key is the
// server's content address for the unit, which the worker re-derives
// locally before computing — a mismatch means the worker binary's module
// fingerprint differs from the server's, and the worker must refuse
// rather than upload bytes the server would file under the wrong key.
type WireUnit struct {
	Index    int                 `json:"index"`
	Artifact string              `json:"artifact"`
	BaseSeed int64               `json:"base_seed"`
	Name     string              `json:"name"`
	Key      string              `json:"key"`
	Config   campaign.SpecConfig `json:"config"`
}

// wireUnit converts a work-list unit to its wire form.
func wireUnit(u campaign.Unit) WireUnit {
	return WireUnit{
		Index:    u.Index,
		Artifact: u.Artifact,
		BaseSeed: u.BaseSeed,
		Name:     u.Name(),
		Key:      u.Key,
		Config:   campaign.SpecConfigOf(u.Config),
	}
}

// Unit reconstructs the computable unit. The returned error reports a
// malformed config; key verification is a separate, deliberate step
// (VerifyKey) so callers can distinguish "bad wire data" from "version
// skew".
func (w WireUnit) Unit() (campaign.Unit, error) {
	cfg, err := w.Config.RunConfig()
	if err != nil {
		return campaign.Unit{}, fmt.Errorf("campaignd: wire unit %s: %w", w.Name, err)
	}
	return campaign.Unit{
		Index:    w.Index,
		Artifact: w.Artifact,
		BaseSeed: w.BaseSeed,
		Config:   cfg.Normalize(),
		Key:      w.Key,
	}, nil
}

// VerifyKey re-derives the unit's content address with the local
// binary's module fingerprint and compares it to the server's. An error
// means this process must not compute the unit.
func (w WireUnit) VerifyKey() error {
	u, err := w.Unit()
	if err != nil {
		return err
	}
	if got := campaign.Key(u.Artifact, u.Config); got != w.Key {
		return fmt.Errorf("campaignd: unit %s: local key %s != server key %s (module fingerprint or format skew; rebuild the worker from the server's commit)",
			w.Name, got[:12], w.Key[:12])
	}
	return nil
}

// SubmitRequest is the POST /v1/campaigns body: a campaign spec,
// verbatim — the same JSON `campaign run -spec` reads.
type SubmitRequest = campaign.Spec

// CampaignDoc describes one registered campaign: its deterministic id
// plus the shared status codec (the exact struct `campaign status -json`
// prints).
type CampaignDoc struct {
	ID        string              `json:"id"`
	Artifacts []string            `json:"artifacts"`
	Status    *campaign.StatusDoc `json:"status"`
}

// CampaignList is GET /v1/campaigns.
type CampaignList struct {
	Campaigns []CampaignSummary `json:"campaigns"`
}

// CampaignSummary is one row of the campaign listing.
type CampaignSummary struct {
	ID        string   `json:"id"`
	Artifacts []string `json:"artifacts"`
	Total     int      `json:"total"`
	Done      int      `json:"done"`
	Leased    int      `json:"leased"`
	Failed    int      `json:"failed"`
	Pending   int      `json:"pending"`
}

// LeaseRequest is the POST /v1/campaigns/{id}/lease body.
type LeaseRequest struct {
	// Worker names the requesting process (host:pid or similar); it
	// appears in stats and logs.
	Worker string `json:"worker"`
}

// LeaseGrant is one issued lease.
type LeaseGrant struct {
	LeaseID    string   `json:"lease_id"`
	CampaignID string   `json:"campaign_id"`
	TTLMs      int64    `json:"ttl_ms"`
	Unit       WireUnit `json:"unit"`
}

// LeaseResponse is the lease endpoint's answer: exactly one of Lease
// set (work to do), Done true (nothing left — the campaign is fully
// computed or exhausted), or RetryAfterMs > 0 (every remaining unit is
// currently leased to someone else; ask again later).
type LeaseResponse struct {
	Lease        *LeaseGrant `json:"lease,omitempty"`
	Done         bool        `json:"done,omitempty"`
	FailedUnits  int         `json:"failed_units,omitempty"`
	RetryAfterMs int64       `json:"retry_after_ms,omitempty"`
}

// HeartbeatResponse extends a lease.
type HeartbeatResponse struct {
	TTLMs int64 `json:"ttl_ms"`
}

// CompleteRequest uploads one computed unit. Result and Metrics carry
// the exact bytes campaign.ComputeUnit produced (JSON text travels fine
// inside a JSON string); the server re-validates both before committing.
type CompleteRequest struct {
	Key     string `json:"key"`
	Result  string `json:"result"`
	Metrics string `json:"metrics"`
}

// CompleteResponse acknowledges a commit. LeaseLost notes that the
// uploader's lease had already expired (the unit may have been re-issued
// meanwhile); the upload is still committed — content-addressing makes
// duplicate computations byte-identical, so the first commit wins and
// the rest are no-ops.
type CompleteResponse struct {
	Committed bool `json:"committed"`
	LeaseLost bool `json:"lease_lost,omitempty"`
}

// FailRequest reports a unit the worker could not compute.
type FailRequest struct {
	Error string `json:"error"`
}

// ErrorDoc is every non-2xx body.
type ErrorDoc struct {
	Error string `json:"error"`
}

// ReadyDoc is the GET /readyz body: "ready" with 200, or "draining" /
// "store-unreachable" with 503.
type ReadyDoc struct {
	Status       string `json:"status"`
	StoreObjects int    `json:"store_objects,omitempty"`
	Error        string `json:"error,omitempty"`
}

// SpecID is a campaign's deterministic identity: the first 16 hex digits
// of the sha256 of the spec's canonical JSON. Submitting the same spec
// twice yields the same campaign — submission is idempotent by
// construction.
func SpecID(spec *campaign.Spec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		// Spec is strings, ints, and bools; it cannot fail to marshal.
		panic("campaignd: spec marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// metaFor builds the store meta document for a unit computed remotely.
func metaFor(u campaign.Unit, module string) campaign.Meta {
	cfg := u.Config.Normalize()
	return campaign.Meta{
		Key:        u.Key,
		Module:     module,
		Artifact:   u.Artifact,
		Seeds:      cfg.Seeds,
		BaseSeed:   cfg.BaseSeed,
		DurationNs: int64(cfg.Duration),
		Quick:      cfg.Quick,
	}
}
