package campaignd

import (
	"testing"
	"time"

	"greedy80211/internal/campaign"
)

// fakeClock is a hand-advanced clock for deterministic lease-expiry
// tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func leaseUnit(key string) campaign.Unit {
	return campaign.Unit{Artifact: "fig1", Key: key}
}

func TestLeaseTableGrantHeartbeatExpiry(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	lt := newLeaseTable(30*time.Second, clock.now)

	l := lt.Grant("c1", leaseUnit("k1"), "w1")
	if l == nil || l.Worker != "w1" {
		t.Fatalf("grant: %+v", l)
	}
	// The key is held: a second grant is refused while the lease lives.
	if dup := lt.Grant("c1", leaseUnit("k1"), "w2"); dup != nil {
		t.Fatalf("double grant of a live key: %+v", dup)
	}
	if !lt.HasKey("k1") {
		t.Fatal("HasKey after grant")
	}

	// Heartbeats keep pushing the deadline: 25s + 25s on a 30s TTL
	// crosses the original deadline without expiring.
	clock.advance(25 * time.Second)
	if ttl, worker, ok := lt.Heartbeat(l.ID); !ok || ttl != 30*time.Second || worker != "w1" {
		t.Fatalf("heartbeat: %v, %q, %v", ttl, worker, ok)
	}
	clock.advance(25 * time.Second)
	if dead := lt.Sweep(); len(dead) != 0 {
		t.Fatalf("sweep reaped a heartbeating lease: %+v", dead)
	}

	// Silence past the TTL expires it; the key becomes grantable again.
	clock.advance(31 * time.Second)
	dead := lt.Sweep()
	if len(dead) != 1 || dead[0].ID != l.ID {
		t.Fatalf("sweep: %+v", dead)
	}
	if _, _, ok := lt.Heartbeat(l.ID); ok {
		t.Fatal("heartbeat on a swept lease succeeded")
	}
	if lt.HasKey("k1") {
		t.Fatal("HasKey after expiry")
	}
	l2 := lt.Grant("c1", leaseUnit("k1"), "w2")
	if l2 == nil || l2.ID == l.ID {
		t.Fatalf("re-grant after expiry: %+v", l2)
	}
}

func TestLeaseTableRemoveLiveVsExpired(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	lt := newLeaseTable(10*time.Second, clock.now)

	l := lt.Grant("c1", leaseUnit("k1"), "w")
	if got, live := lt.Remove(l.ID); got == nil || !live {
		t.Fatalf("remove live: %+v, %v", got, live)
	}
	if _, ok := lt.Remove(l.ID); ok {
		t.Fatal("double remove reported live")
	}

	// An expired-but-unswept lease removes as not-live: the server
	// counts its completion as late.
	l2 := lt.Grant("c1", leaseUnit("k2"), "w")
	if keys, active := lt.leasedKeys(), lt.activeByWorker(); !keys["k2"] || len(keys) != 1 || active["w"] != 1 {
		t.Fatalf("live views: leasedKeys %v, activeByWorker %v", keys, active)
	}
	clock.advance(11 * time.Second)
	// Expired leases drop out of the live views without a sweep.
	if keys, active := lt.leasedKeys(), lt.activeByWorker(); len(keys) != 0 || len(active) != 0 {
		t.Errorf("live views after expiry: leasedKeys %v, activeByWorker %v", keys, active)
	}
	if got, live := lt.Remove(l2.ID); got == nil || live {
		t.Fatalf("remove expired: %+v, live=%v", got, live)
	}
}
