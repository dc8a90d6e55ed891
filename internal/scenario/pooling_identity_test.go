package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"greedy80211/internal/metrics"
	"greedy80211/internal/sim"
	"greedy80211/internal/trace"
)

// TestPoolingByteIdentity pins the full output of two pooled worlds —
// the flight-recorder stream byte for byte, flow goodputs and telemetry —
// to SHA-256 digests recorded when an unpooled build path still existed
// and was proven to produce the same bytes. Pooling is a pure allocation
// strategy, so any pooling bug that perturbs RNG draws, event ordering,
// or frame/packet contents shows up here as a digest change. It is also
// the only golden over a TCP world's trace. Pool misuse (double put,
// use after put) is caught separately by the pooldebug build.
func TestPoolingByteIdentity(t *testing.T) {
	cases := []struct {
		name       string
		build      func(cfg Config) (*World, error)
		trace, out string // hex SHA-256 of the trace JSONL and of flows+metrics
	}{
		{"udp-rtscts", func(cfg Config) (*World, error) {
			cfg.UseRTSCTS = true
			return BuildPairs(PairsConfig{Config: cfg, N: 2, Transport: UDP})
		},
			"f4b56f85bff0c64107b189352ba6e9f7210a833ed3894c4eeeeb6bf1ea82d3e4",
			"aae23c1a3387d79ed811fbe845da143c83e6ab4c1cb32f58c7cdc0d4c41119ee"},
		{"tcp", func(cfg Config) (*World, error) {
			return BuildPairs(PairsConfig{Config: cfg, N: 2, Transport: TCP})
		},
			"bdb6b14723f35362be660060471c06259557b78ac63940ac755ba141120aa02d",
			"99bfd70e07eb33cfdd0185dd81644c76e6fada9c3af3fb0e84055cc4458f421a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.build(Config{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder(0)
			w.AttachTrace(rec, rec)
			w.Run(2 * sim.Second)
			var tr bytes.Buffer
			if err := trace.WriteJSONL(&tr, rec.Meta("id", 5), rec.Events()); err != nil {
				t.Fatal(err)
			}
			if tr.Len() == 0 {
				t.Fatal("empty trace export")
			}
			var out bytes.Buffer
			for _, fl := range w.Flows() {
				fmt.Fprintf(&out, "%d:%.9f\n", fl.ID, fl.GoodputMbps(2*sim.Second))
			}
			if err := metrics.EncodeSnapshots(&out, []*metrics.Snapshot{w.MetricsSnapshot()}); err != nil {
				t.Fatal(err)
			}
			if got := digest(tr.Bytes()); got != tc.trace {
				t.Errorf("trace export (%d bytes) sha256 = %s, want %s", tr.Len(), got, tc.trace)
			}
			if got := digest(out.Bytes()); got != tc.out {
				t.Errorf("flows/metrics sha256 = %s, want %s\n%s", got, tc.out, out.String())
			}
		})
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
