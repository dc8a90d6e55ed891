package campaignd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strings"
	"time"

	"greedy80211/internal/campaign"
	"greedy80211/internal/experiments"
	"greedy80211/internal/obs"
	"greedy80211/internal/report"
	"greedy80211/internal/sim"
	"greedy80211/internal/trace"
)

// routes wires the versioned REST surface. Every handler is wrapped
// with the route tag its latency is accounted under — requests the mux
// never matches keep an empty tag and collapse into the single
// "unmatched" key in Handler (bounded cardinality).
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle("GET /v1/campaigns", s.handleCampaignList)
	handle("POST /v1/campaigns", s.handleCampaignSubmit)
	handle("GET /v1/campaigns/{id}", s.handleCampaignStatus)
	handle("POST /v1/campaigns/{id}/lease", s.handleLease)
	handle("POST /v1/leases/{id}/heartbeat", s.handleHeartbeat)
	handle("POST /v1/leases/{id}/complete", s.handleComplete)
	handle("POST /v1/leases/{id}/fail", s.handleFail)
	handle("GET /v1/results/{key}", s.handleResult)
	handle("GET /v1/metrics/{key}", s.handleMetrics)
	handle("GET /v1/meta/{key}", s.handleMeta)
	handle("GET /v1/verdicts", s.handleVerdicts)
	handle("GET /v1/traces/{key}", s.handleTraces)
	handle("GET /v1/progress", s.handleProgress)
	handle("GET /metrics", s.handleMetricsExposition)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /readyz", s.handleReadyz)
	return mux
}

// instrument tags the response recorder with the matched pattern;
// observation itself happens once, in Handler, after the mux returns.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if rec, ok := w.(*statusRecorder); ok {
			rec.route = pattern
		}
		h(w, r)
	}
}

// writeJSON is the one response codec: indented JSON plus a trailing
// newline, the same rendering `campaign status -json` prints.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorDoc{Error: fmt.Sprintf(format, args...)})
}

// httpError lets deep helpers pick the response status (e.g. 409 for a
// module-fingerprint conflict) without plumbing http through them.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// readJSON decodes a request body, rejecting unknown fields.
func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// serveBlob writes immutable content-addressed bytes with a strong ETag.
// If the client already holds the bytes (If-None-Match), it gets a 304
// and the server never touches the payload — the warm-reader fast path
// the store's sha256 addressing buys.
func (s *Server) serveBlob(w http.ResponseWriter, r *http.Request, etag, contentType string, body func() ([]byte, error)) {
	quoted := `"` + etag + `"`
	w.Header().Set("ETag", quoted)
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	if match := r.Header.Get("If-None-Match"); match != "" && strings.Contains(match, quoted) {
		s.stats.blobNotModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	data, err := body()
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.stats.blobMissing.Add(1)
			writeErr(w, http.StatusNotFound, "no such object")
			return
		}
		var he *httpError
		if errors.As(err, &he) {
			writeErr(w, he.code, "%s", he.msg)
			return
		}
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.stats.blobServed.Add(1)
	w.Header().Set("Content-Type", contentType)
	w.Write(data)
}

// --- campaigns ---

func (s *Server) handleCampaignList(w http.ResponseWriter, r *http.Request) {
	sums, err := s.campaignSummaries()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, CampaignList{Campaigns: sums})
}

func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	var spec campaign.Spec
	if err := readJSON(r, &spec); err != nil {
		writeErr(w, http.StatusBadRequest, "parsing spec: %v", err)
		return
	}
	id, err := s.Register(&spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	doc, err := s.campaignDoc(id)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) campaignDoc(id string) (*CampaignDoc, error) {
	st := s.campaignByID(id)
	if st == nil {
		return nil, nil
	}
	status, err := s.statusDoc(st)
	if err != nil {
		return nil, err
	}
	return &CampaignDoc{ID: id, Artifacts: artifactsOf(st.units), Status: status}, nil
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	doc, err := s.campaignDoc(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if doc == nil {
		writeErr(w, http.StatusNotFound, "no such campaign")
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// --- leases ---

// Client-supplied strings that end up in the journal are bounded, so
// every journal line stays far below the reader's line limit.
const (
	maxWorkerName = 256  // LeaseRequest.Worker; longer names get 400
	maxFailReason = 4096 // FailRequest.Error; longer reports are truncated
)

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	st := s.campaignByID(r.PathValue("id"))
	if st == nil {
		writeErr(w, http.StatusNotFound, "no such campaign")
		return
	}
	var req LeaseRequest
	if err := readJSON(r, &req); err != nil && !errors.Is(err, io.EOF) {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Worker) > maxWorkerName {
		writeErr(w, http.StatusBadRequest, "worker name longer than %d bytes", maxWorkerName)
		return
	}
	if req.Worker == "" {
		req.Worker = "anonymous"
	}
	s.progress.workerSeen(req.Worker)
	if dead := s.leases.Sweep(); len(dead) > 0 {
		s.stats.leasesExpired.Add(uint64(len(dead)))
		now := s.now()
		for _, l := range dead {
			s.record(l.span(now, "expired"))
		}
		s.logger.InfoContext(r.Context(), "leases expired; units re-issuable", "count", len(dead))
	}
	remaining, failed := 0, 0
	for _, u := range st.units {
		if s.store.Has(u.Key) {
			continue
		}
		if s.failureCount(st, u.Key) >= s.cfg.MaxUnitFailures {
			failed++
			continue
		}
		remaining++
		l := s.leases.Grant(st.id, u, req.Worker)
		if l == nil {
			continue // live lease held by someone else
		}
		sp := u.Span("start", l.Granted, l.Granted)
		sp.Worker = l.Worker
		s.record(sp)
		s.stats.leasesGranted.Add(1)
		s.logger.InfoContext(obs.WithLeaseID(r.Context(), l.ID), "leased unit",
			"unit", u.Name(), "key", u.Key[:12], "worker", req.Worker)
		writeJSON(w, http.StatusOK, LeaseResponse{Lease: &LeaseGrant{
			LeaseID:    l.ID,
			CampaignID: st.id,
			TTLMs:      s.cfg.LeaseTTL.Milliseconds(),
			Unit:       wireUnit(u),
		}})
		return
	}
	if remaining == 0 {
		writeJSON(w, http.StatusOK, LeaseResponse{Done: true, FailedUnits: failed})
		return
	}
	// Everything left is leased out; suggest coming back around half a
	// TTL later (bounded below so a tiny test TTL can't busy-spin).
	retry := s.cfg.LeaseTTL / 2
	if retry < 50*time.Millisecond {
		retry = 50 * time.Millisecond
	}
	writeJSON(w, http.StatusOK, LeaseResponse{RetryAfterMs: retry.Milliseconds()})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	ttl, worker, ok := s.leases.Heartbeat(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "lease expired or unknown")
		return
	}
	s.progress.workerSeen(worker)
	writeJSON(w, http.StatusOK, HeartbeatResponse{TTLMs: ttl.Milliseconds()})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	uploadStart := s.now()
	var req CompleteRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	leaseID := r.PathValue("id")
	ctx := obs.WithLeaseID(r.Context(), leaseID)
	l, live := s.leases.Remove(leaseID)
	var unit campaign.Unit
	switch {
	case l != nil:
		unit = l.Unit
		if req.Key != "" && req.Key != unit.Key {
			writeErr(w, http.StatusConflict, "uploaded key %s does not match leased unit %s", req.Key, unit.Key)
			return
		}
	default:
		// The lease is gone (expired and swept, or the server
		// restarted). The bytes are still valid if the key names a
		// registered unit — content addressing makes any correct
		// computation of the unit interchangeable.
		var ok bool
		if unit, ok = s.unitByKey(req.Key); !ok {
			writeErr(w, http.StatusNotFound, "lease unknown and key matches no registered unit")
			return
		}
	}
	result, metrics := []byte(req.Result), []byte(req.Metrics)
	if err := campaign.CheckPayloads(result, metrics); err != nil {
		s.stats.leasesFailed.Add(1)
		writeErr(w, http.StatusUnprocessableEntity, "rejecting upload: %v", err)
		return
	}
	worker := ""
	if l != nil {
		worker = l.Worker
	}
	uploadEnd := s.now()
	sp := unit.Span("upload", uploadStart, uploadEnd)
	sp.Worker = worker
	s.record(sp)
	if err := s.store.Put(metaFor(unit, s.module), result, metrics); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	commitEnd := s.now()
	sp = unit.Span("commit", uploadEnd, commitEnd)
	sp.Worker = worker
	s.record(sp)
	lost := l == nil || !live
	if lost {
		s.stats.lateCompletes.Add(1)
	} else {
		s.stats.leasesCompleted.Add(1)
	}
	if l != nil {
		s.record(l.span(commitEnd, map[bool]string{true: "late", false: "completed"}[lost]))
	}
	s.logger.InfoContext(ctx, "committed unit",
		"artifact", unit.Artifact, "key", unit.Key[:12], "worker", worker, "lease_lost", lost)
	writeJSON(w, http.StatusOK, CompleteResponse{Committed: true, LeaseLost: lost})
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if err := readJSON(r, &req); err != nil && !errors.Is(err, io.EOF) {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	l, _ := s.leases.Remove(r.PathValue("id"))
	if l == nil {
		writeErr(w, http.StatusNotFound, "lease expired or unknown")
		return
	}
	s.stats.leasesFailed.Add(1)
	st := s.campaignByID(l.CampaignID)
	count := 0
	if st != nil {
		count = s.recordFailure(st, l.Unit.Key)
	}
	// The error is the client's free text: bound what the journal keeps so
	// one huge report cannot outgrow a journal line.
	reason := req.Error
	if len(reason) > maxFailReason {
		reason = reason[:maxFailReason] + "…"
	}
	s.record(l.span(s.now(), "failed: "+reason))
	s.logger.InfoContext(obs.WithLeaseID(r.Context(), l.ID), "worker failed unit",
		"worker", l.Worker, "unit", l.Unit.Name(), "attempt", count, "error", reason)
	writeJSON(w, http.StatusOK, struct {
		Failures int  `json:"failures"`
		GivenUp  bool `json:"given_up"`
	}{count, count >= s.cfg.MaxUnitFailures})
}

// --- content-addressed reads ---

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	s.serveBlob(w, r, key+"/result", "application/json", func() ([]byte, error) {
		return s.store.GetResult(key)
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	s.serveBlob(w, r, key+"/metrics", "application/json", func() ([]byte, error) {
		return s.store.GetMetrics(key)
	})
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	s.serveBlob(w, r, key+"/meta", "application/json", func() ([]byte, error) {
		meta, err := s.store.GetMeta(key)
		if err != nil {
			return nil, err
		}
		b, err := json.MarshalIndent(meta, "", "  ")
		if err != nil {
			return nil, err
		}
		return append(b, '\n'), nil
	})
}

// --- verdicts ---

// handleVerdicts evaluates the reproduction gate read-only against the
// store (never simulating) and serves the verdicts document — the same
// codec cmd/report writes to verdicts.json. The ETag is the sha256 of
// the body, so pollers watching a stable store get 304s.
func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	sets, err := s.refSets()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	rep, err := report.FromStore(r.Context(), sets, s.store, false, io.Discard)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	var buf bytes.Buffer
	if err := report.WriteVerdicts(&buf, rep); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	sum := sha256.Sum256(buf.Bytes())
	s.serveBlob(w, r, hex.EncodeToString(sum[:]), "application/json", func() ([]byte, error) {
		return buf.Bytes(), nil
	})
}

// --- trace renders ---

// handleTraces serves a flight-recorder render of the unit behind key.
// The render is deterministic (same seeds, same config, probes perturb
// nothing), so it is computed at most once: the first request simulates
// and caches the bytes in the backend under traces/<key>/<format>, and
// every later request — across server restarts — is a pure read.
// Formats: "timeline" (ASCII, default) and "jsonl" (concatenated
// per-world JSONL streams).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "timeline"
	}
	contentType := "text/plain; charset=utf-8"
	if format == "jsonl" {
		contentType = "application/x-ndjson"
	} else if format != "timeline" {
		writeErr(w, http.StatusBadRequest, "unknown format %q (want timeline or jsonl)", format)
		return
	}
	if len(key) < 2 {
		writeErr(w, http.StatusNotFound, "no such object")
		return
	}
	cacheName := "traces/" + key[:2] + "/" + key + "/" + format
	s.serveBlob(w, r, key+"/trace-"+format, contentType, func() ([]byte, error) {
		if data, err := s.store.Backend().Get(cacheName); err == nil {
			s.stats.tracesCached.Add(1)
			return data, nil
		}
		data, err := s.renderTrace(key, format)
		if err != nil {
			return nil, err
		}
		// Cache for every later reader; a failed cache write only costs
		// the next request a re-render.
		if err := s.store.Backend().Put(cacheName, data); err != nil {
			s.logger.Warn("caching trace render failed", "object", cacheName, "error", err)
		}
		s.stats.tracesRendered.Add(1)
		return data, nil
	})
}

// renderTrace re-simulates the stored unit with a flight recorder
// attached and renders the recordings. The unit's meta names the exact
// artifact and normalized config; the module fingerprint must match this
// binary's, otherwise the re-simulation would not reproduce the stored
// result and the render would lie about it.
func (s *Server) renderTrace(key, format string) ([]byte, error) {
	meta, err := s.store.GetMeta(key)
	if err != nil {
		return nil, err
	}
	if meta.Module != s.module {
		return nil, &httpError{
			code: http.StatusConflict,
			msg: fmt.Sprintf("entry %s was computed by module %q, this server is %q; refusing to render a trace that would not match the stored result",
				key[:12], meta.Module, s.module),
		}
	}
	coll := trace.NewCollector(0)
	rc := experiments.RunConfig{
		Seeds:    meta.Seeds,
		BaseSeed: meta.BaseSeed,
		Duration: sim.Time(meta.DurationNs),
		Quick:    meta.Quick,
		Trace:    coll,
	}
	if _, err := experiments.Run(meta.Artifact, rc); err != nil {
		return nil, fmt.Errorf("campaignd: tracing %s: %w", meta.Artifact, err)
	}
	var buf bytes.Buffer
	recs := coll.Recordings()
	if len(recs) == 0 && format != "jsonl" {
		// Analytic artifacts run no simulated worlds; say so instead of
		// serving a confusing empty render. (JSONL stays empty — zero
		// lines is the honest encoding there.)
		fmt.Fprintf(&buf, "%s: no trace recordings (analytic artifact, no simulated worlds)\n", meta.Artifact)
	}
	for i, rec := range recs {
		rmeta := rec.Meta(meta.Artifact)
		events := rec.Recorder.Events()
		switch format {
		case "jsonl":
			if err := trace.WriteJSONL(&buf, rmeta, events); err != nil {
				return nil, err
			}
		default:
			fmt.Fprintf(&buf, "=== %s run %d seed %d ===\n", meta.Artifact, i, rec.Seed)
			buf.WriteString(trace.RenderTimeline(rmeta, events, 0, 0, 120))
		}
	}
	return buf.Bytes(), nil
}

// --- observability surface ---

// handleMetricsExposition serves the registry as Prometheus text
// exposition format v0.0.4 — the dependency-free rendering obs
// implements. Rendered into a buffer first so a slow client cannot hold
// registry snapshots open.
func (s *Server) handleMetricsExposition(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := s.stats.reg.WritePrometheus(&buf); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// handleHealthz is pure liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz is readiness: 503 while draining (before the listener
// closes, so pollers see the drain coming) or when the store stops
// answering; 200 with the object count otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ReadyDoc{Status: "draining"})
		return
	}
	keys, err := s.store.Keys()
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, ReadyDoc{Status: "store-unreachable", Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, ReadyDoc{Status: "ready", StoreObjects: len(keys)})
}

// handleProgress serves the live completion view: per-campaign and
// per-artifact done counts, ETAs from the learned per-unit wall times,
// and the worker fleet table.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()

	activeByWorker := s.leases.activeByWorker()
	fleet := len(activeByWorker)
	if fleet == 0 {
		fleet = 1 // ETA assumes at least a sequential worker
	}
	ewma := s.progress.ewmaSnapshot()

	doc := ProgressDoc{
		UptimeSeconds: s.now().Sub(s.stats.start).Seconds(),
		Draining:      s.draining.Load(),
		Done:          len(ids) > 0,
		Campaigns:     make([]CampaignProgress, 0, len(ids)),
		Workers:       s.progress.workersDoc(activeByWorker),
	}
	for _, id := range ids {
		st := s.campaignByID(id)
		if st == nil {
			continue
		}
		status, err := s.statusDoc(st)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		cp := CampaignProgress{
			ID:       id,
			Total:    status.Total,
			Done:     status.Done,
			Leased:   status.Leased,
			Failed:   status.Failed,
			Screened: status.Screened,
			Pending:  status.Pending + status.Interrupted,
		}
		if cp.Total > 0 {
			settled := cp.Done + cp.Failed + cp.Screened
			cp.DonePct = 100 * float64(settled) / float64(cp.Total)
		}
		// Per-artifact rollup in first-seen (work-list) order.
		var order []string
		byArtifact := make(map[string]*ArtifactProgress)
		remaining := make(map[string]int)
		for _, u := range status.Units {
			ap := byArtifact[u.Artifact]
			if ap == nil {
				ap = &ArtifactProgress{Artifact: u.Artifact}
				byArtifact[u.Artifact] = ap
				order = append(order, u.Artifact)
			}
			ap.Total++
			switch u.State {
			case campaign.UnitDone, campaign.UnitScreened, campaign.UnitFailed:
				ap.Done++
			default:
				remaining[u.Artifact]++
			}
		}
		for _, a := range order {
			ap := byArtifact[a]
			ap.UnitSeconds = ewma[a]
			if n := remaining[a]; n > 0 && ap.UnitSeconds > 0 {
				ap.ETASeconds = float64(n) * ap.UnitSeconds / float64(fleet)
			}
			cp.ETASeconds += ap.ETASeconds
			cp.Artifacts = append(cp.Artifacts, *ap)
		}
		if cp.Pending+cp.Leased > 0 {
			doc.Done = false
		}
		doc.Campaigns = append(doc.Campaigns, cp)
	}
	writeJSON(w, http.StatusOK, doc)
}
