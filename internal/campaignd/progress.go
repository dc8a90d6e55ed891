package campaignd

import (
	"sort"
	"strings"
	"sync"
	"time"

	"greedy80211/internal/campaign"
)

// ewmaAlpha weights the most recent unit wall-time at 30% — reactive
// enough to track a config change mid-campaign, smooth enough that one
// slow unit does not whipsaw the ETA.
const ewmaAlpha = 0.3

// progressTracker accumulates what the status endpoints cannot recover
// from the store alone: how long units of each artifact actually take
// (EWMA of lease-grant-to-commit wall time) and which workers have been
// doing the work, learned from the lifecycle spans Server.record
// journals. It is advisory telemetry — a server restart forgets it, and
// the ETAs simply warm up again.
type progressTracker struct {
	mu      sync.Mutex
	now     func() time.Time
	ewma    map[string]float64 // artifact -> smoothed per-unit wall seconds
	workers map[string]*workerRecord
}

type workerRecord struct {
	completed uint64
	failed    uint64
	lastSeen  time.Time
}

func newProgressTracker(now func() time.Time) *progressTracker {
	return &progressTracker{
		now:     now,
		ewma:    make(map[string]float64),
		workers: make(map[string]*workerRecord),
	}
}

func (p *progressTracker) worker(name string) *workerRecord {
	w := p.workers[name]
	if w == nil {
		w = &workerRecord{}
		p.workers[name] = w
	}
	return w
}

// workerSeen refreshes a worker's liveness (lease and heartbeat calls).
func (p *progressTracker) workerSeen(name string) {
	if name == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.worker(name).lastSeen = p.now()
}

// observe folds one journaled lifecycle span into the view. Only lease
// spans teach it anything: a completed lease feeds its grant-to-commit
// wall time into the artifact's EWMA and credits the worker; a failed
// one debits the worker (its wall time teaches nothing — failures are
// not representative of compute cost). Expired and late leases update
// nothing.
func (p *progressTracker) observe(sp campaign.Span) {
	if sp.Phase != "lease" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case sp.Note == "completed":
		sample := time.Duration(sp.EndUnixNs - sp.StartUnixNs).Seconds()
		if sample < 0 {
			sample = 0
		}
		if prev, ok := p.ewma[sp.Artifact]; ok {
			p.ewma[sp.Artifact] = ewmaAlpha*sample + (1-ewmaAlpha)*prev
		} else {
			p.ewma[sp.Artifact] = sample
		}
		if sp.Worker != "" {
			w := p.worker(sp.Worker)
			w.completed++
			w.lastSeen = p.now()
		}
	case strings.HasPrefix(sp.Note, "failed") && sp.Worker != "":
		w := p.worker(sp.Worker)
		w.failed++
		w.lastSeen = p.now()
	}
}

func (p *progressTracker) ewmaSnapshot() map[string]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]float64, len(p.ewma))
	for k, v := range p.ewma {
		out[k] = v
	}
	return out
}

// workersDoc renders the fleet table, active lease counts folded in,
// sorted by name for stable output.
func (p *progressTracker) workersDoc(active map[string]int) []WorkerProgress {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	names := make(map[string]bool, len(p.workers)+len(active))
	for name := range p.workers {
		names[name] = true
	}
	for name := range active {
		names[name] = true
	}
	out := make([]WorkerProgress, 0, len(names))
	for name := range names {
		wp := WorkerProgress{Worker: name, ActiveLeases: active[name]}
		if w := p.workers[name]; w != nil {
			wp.Completed = w.completed
			wp.Failed = w.failed
			if !w.lastSeen.IsZero() {
				wp.LastSeenAgoS = now.Sub(w.lastSeen).Seconds()
			}
		}
		out = append(out, wp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// ProgressDoc is the GET /v1/progress body: live completion state with
// ETAs, cheap enough to poll (`campaign status -follow` does, every
// couple of seconds).
type ProgressDoc struct {
	UptimeSeconds float64            `json:"uptime_s"`
	Draining      bool               `json:"draining"`
	Done          bool               `json:"done"` // nothing pending or leased anywhere
	Campaigns     []CampaignProgress `json:"campaigns"`
	Workers       []WorkerProgress   `json:"workers,omitempty"`
}

// CampaignProgress is one campaign's completion state. ETASeconds is
// remaining-units x per-unit EWMA, divided across the live worker
// fleet; zero means unknown (no completed unit has taught the tracker a
// wall time yet).
type CampaignProgress struct {
	ID         string             `json:"id"`
	Total      int                `json:"total"`
	Done       int                `json:"done"`
	Leased     int                `json:"leased"`
	Failed     int                `json:"failed"`
	Screened   int                `json:"screened"`
	Pending    int                `json:"pending"` // includes interrupted units
	DonePct    float64            `json:"done_pct"`
	ETASeconds float64            `json:"eta_s,omitempty"`
	Artifacts  []ArtifactProgress `json:"artifacts"`
}

// ArtifactProgress is the per-artifact slice of a campaign: settled
// units over total, plus the learned per-unit wall time driving the
// ETA. The per-artifact ETA assumes the whole fleet works this artifact
// — optimistic individually, accurate in sum.
type ArtifactProgress struct {
	Artifact    string  `json:"artifact"`
	Total       int     `json:"total"`
	Done        int     `json:"done"`
	UnitSeconds float64 `json:"unit_s,omitempty"` // EWMA wall time per unit
	ETASeconds  float64 `json:"eta_s,omitempty"`
}

// WorkerProgress is one row of the fleet table.
type WorkerProgress struct {
	Worker       string  `json:"worker"`
	ActiveLeases int     `json:"active_leases"`
	Completed    uint64  `json:"completed"`
	Failed       uint64  `json:"failed,omitempty"`
	LastSeenAgoS float64 `json:"last_seen_ago_s"`
}
