package campaignd

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"greedy80211/internal/campaign"
)

// Lease is one unit checked out to one worker. A lease is alive until
// its deadline; heartbeats push the deadline forward, completion or
// failure removes it, and a deadline in the past means the worker died —
// the unit becomes grantable again.
type Lease struct {
	ID         string
	CampaignID string
	Worker     string
	Unit       campaign.Unit
	Granted    time.Time
	Deadline   time.Time
}

// span is the lease's lifecycle span, from grant to end, with the
// disposition ("completed", "late", "expired", "failed: …") as its note.
func (l *Lease) span(end time.Time, note string) campaign.Span {
	sp := l.Unit.Span("lease", l.Granted, end)
	sp.Worker, sp.Note = l.Worker, note
	return sp
}

// leaseTable is the in-memory lease ledger. It is deliberately not
// persisted: a server restart drops every lease, which is safe — the
// store still records what is computed, workers fail their next
// heartbeat, re-lease, and racing duplicate computations commit
// identical bytes under identical keys.
type leaseTable struct {
	mu    sync.Mutex
	ttl   time.Duration
	now   func() time.Time
	seq   uint64
	byID  map[string]*Lease
	byKey map[string]*Lease
}

func newLeaseTable(ttl time.Duration, now func() time.Time) *leaseTable {
	if now == nil {
		now = time.Now
	}
	return &leaseTable{
		ttl:   ttl,
		now:   now,
		byID:  make(map[string]*Lease),
		byKey: make(map[string]*Lease),
	}
}

// Sweep removes and returns every expired lease. The caller re-issues
// their units simply by treating them as unleased on the next grant.
func (t *leaseTable) Sweep() []*Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var dead []*Lease
	for id, l := range t.byID {
		if l.Deadline.Before(now) {
			delete(t.byID, id)
			delete(t.byKey, l.Unit.Key)
			dead = append(dead, l)
		}
	}
	return dead
}

// Grant leases the unit to worker, or returns nil if another live lease
// already holds its key.
func (t *leaseTable) Grant(campaignID string, u campaign.Unit, worker string) *Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	if existing, ok := t.byKey[u.Key]; ok && !existing.Deadline.Before(t.now()) {
		return nil
	}
	t.seq++
	var rnd [8]byte
	if _, err := rand.Read(rnd[:]); err != nil {
		// crypto/rand never fails on the platforms we run on; if it
		// somehow does, the sequence number alone still uniquely
		// identifies the lease within this process.
		copy(rnd[:], fmt.Sprintf("%08d", t.seq))
	}
	now := t.now()
	l := &Lease{
		ID:         fmt.Sprintf("l%d-%s", t.seq, hex.EncodeToString(rnd[:])),
		CampaignID: campaignID,
		Worker:     worker,
		Unit:       u,
		Granted:    now,
		Deadline:   now.Add(t.ttl),
	}
	t.byID[l.ID] = l
	t.byKey[u.Key] = l
	return l
}

// Heartbeat extends the lease's deadline by a full TTL, returning the
// holding worker's name. The last return is false when the lease is
// unknown or already expired — the worker lost it and must abandon the
// unit.
func (t *leaseTable) Heartbeat(id string) (time.Duration, string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.byID[id]
	if !ok || l.Deadline.Before(t.now()) {
		return 0, "", false
	}
	l.Deadline = t.now().Add(t.ttl)
	return t.ttl, l.Worker, true
}

// Lookup returns the lease, live or expired but not yet swept, without
// removing it; nil if the table does not hold it.
func (t *leaseTable) Lookup(id string) *Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

// Remove takes the lease out of the table (complete or fail), returning
// it and whether it was still live.
func (t *leaseTable) Remove(id string) (*Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.byID[id]
	if !ok {
		return nil, false
	}
	delete(t.byID, id)
	delete(t.byKey, l.Unit.Key)
	if l.Deadline.Before(t.now()) {
		return l, false
	}
	return l, true
}

// HasKey reports whether a live lease holds the key.
func (t *leaseTable) HasKey(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.byKey[key]
	return ok && !l.Deadline.Before(t.now())
}

// leasedKeys returns the set of keys under live lease (for status
// overlays).
func (t *leaseTable) leasedKeys() map[string]bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	out := make(map[string]bool, len(t.byKey))
	for key, l := range t.byKey {
		if !l.Deadline.Before(now) {
			out[key] = true
		}
	}
	return out
}

// activeByWorker counts the live leases each worker holds.
func (t *leaseTable) activeByWorker() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	out := make(map[string]int)
	for _, l := range t.byID {
		if !l.Deadline.Before(now) {
			out[l.Worker]++
		}
	}
	return out
}
