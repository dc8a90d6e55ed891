package experiments

import (
	"bytes"
	"testing"
)

// The JSON encoding is the campaign store's value format, so it must be
// stable (same Result → same bytes) and a decode/re-encode cycle must be
// the identity — floats included. fig1 covers series with measured
// float64s, tab3 a pure table artifact.
func TestResultJSONRoundTripIsIdentity(t *testing.T) {
	cfg := RunConfig{Quick: true, Seeds: 1, BaseSeed: 5}
	for _, id := range []string{"fig1", "tab3"} {
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, cfg)
			if err != nil {
				t.Fatalf("run %s: %v", id, err)
			}
			first, err := res.MarshalStable()
			if err != nil {
				t.Fatal(err)
			}
			again, err := res.MarshalStable()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, again) {
				t.Fatal("encoding the same Result twice produced different bytes")
			}
			decoded, err := DecodeResult(first)
			if err != nil {
				t.Fatal(err)
			}
			reencoded, err := decoded.MarshalStable()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, reencoded) {
				t.Error("decode → re-encode changed bytes")
			}
			if decoded.String() != res.String() {
				t.Error("decoded result renders differently")
			}
		})
	}
}
