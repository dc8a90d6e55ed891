package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// Snapshots round-trip through the store encoding exactly: decode →
// re-encode is byte-identical, and the JSONL emitted from decoded
// snapshots matches the original emission — the property campaign
// assembly relies on.
func TestSnapshotsRoundTripIsIdentity(t *testing.T) {
	snaps := []*Snapshot{
		{
			Runs: 3, DurationSecs: 5.000000001, ChannelBusySecs: 1.0 / 3.0,
			ChannelUtilization: 0.06666666666666667,
			Stations: []Station{
				{ID: 0, Name: "NS", AvgCW: 31.5, RTSSent: 100, AirtimeSecs: 0.1234567890123},
				{ID: 1, Name: "GR", NAVBlockedSecs: 2.0000000000000004e-05},
			},
		},
		{Runs: 1, DurationSecs: 2},
	}
	var first bytes.Buffer
	if err := EncodeSnapshots(&first, snaps); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshots(first.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := EncodeSnapshots(&again, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Error("decode → re-encode changed bytes")
	}

	var origLines, decodedLines strings.Builder
	for i, s := range snaps {
		if err := EncodeJSONL(&origLines, Labeled{Label: "x", Group: i, Snap: s}); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range decoded {
		if err := EncodeJSONL(&decodedLines, Labeled{Label: "x", Group: i, Snap: s}); err != nil {
			t.Fatal(err)
		}
	}
	if origLines.String() != decodedLines.String() {
		t.Error("JSONL emission differs after a store round trip")
	}
}

// nil and empty both encode as an empty array, never "null".
func TestSnapshotsEmptyEncoding(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSnapshots(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("nil snapshots encode as %q, want []", got)
	}
	decoded, err := DecodeSnapshots(buf.Bytes())
	if err != nil || len(decoded) != 0 {
		t.Errorf("decode empty: %v, %v", decoded, err)
	}
}

// sidecarPath is a real store sidecar: the fig6 unit at the gate's
// profile (3 seeds × 1 s), as EncodeSnapshots wrote it.
const sidecarPath = "testdata/fig6_sidecar.json"

// rejectCases are inputs DecodeSnapshots must refuse. Those marked
// stdlib are documents encoding/json accepts: the decoder is stricter on
// purpose.
var rejectCases = []struct {
	name   string
	in     string
	stdlib bool
}{
	{"empty", "", false},
	{"whitespace only", " \n\t", false},
	{"top-level null", "null", true},
	{"top-level object", `{"runs":1}`, false},
	{"trailing array", `[] {"oops":1}`, false},
	{"trailing junk", "[]\n x", false},
	{"null snapshot", "[null]", true},
	{"null station", `[{"stations":[null]}]`, true},
	{"unknown key", `[{"runz":1}]`, true},
	{"case-folded key", `[{"Runs":1}]`, true},
	{"case-folded station key", `[{"stations":[{"ID":1}]}]`, true},
	{"escaped key", `[{"r\u0075ns":1}]`, true},
	{"duplicate key", `[{"runs":1,"runs":2}]`, true},
	{"duplicate station key", `[{"stations":[{"avg_cw":1,"avg_cw":1}]}]`, true},
	{"null int", `[{"runs":null}]`, true},
	{"null float", `[{"duration_secs":null}]`, true},
	{"null name", `[{"stations":[{"station":null}]}]`, true},
	{"plus sign", `[{"runs":+1}]`, false},
	{"bare fraction", `[{"duration_secs":.5}]`, false},
	{"leading zero", `[{"runs":01}]`, false},
	{"hex", `[{"runs":0x10}]`, false},
	{"Inf", `[{"duration_secs":Inf}]`, false},
	{"NaN", `[{"duration_secs":NaN}]`, false},
	{"empty fraction", `[{"duration_secs":1.}]`, false},
	{"empty exponent", `[{"duration_secs":1e}]`, false},
	{"lone minus", `[{"duration_secs":-}]`, false},
	{"fractional int", `[{"runs":1.5}]`, false},
	{"exponent int", `[{"runs":1e3}]`, false},
	{"int overflow", `[{"runs":99999999999999999999}]`, false},
	{"float overflow", `[{"duration_secs":1e999}]`, false},
	{"string for number", `[{"runs":"1"}]`, false},
	{"number for name", `[{"stations":[{"station":1}]}]`, false},
	{"stations object", `[{"stations":{}}]`, false},
	{"control character", "[{\"stations\":[{\"station\":\"a\tb\"}]}]", false},
	{"bad escape", `[{"stations":[{"station":"\x"}]}]`, false},
	{"unterminated string", `[{"stations":[{"station":"NS`, false},
	{"truncated", `[{"runs":1`, false},
	{"trailing comma", `[{"runs":1,}]`, false},
	{"trailing element comma", `[{},]`, false},
	{"missing colon", `[{"runs" 1}]`, false},
	{"null prefix", `[{"stations":nul}]`, false},
	{"null suffix", `[{"stations":nullx}]`, false},
}

// acceptCases are documents DecodeSnapshots must read as encoding/json
// does.
var acceptCases = []struct{ name, in string }{
	{"empty array", "[]"},
	{"empty snapshot", "[{}]"},
	{"null stations", `[{"runs":1,"stations":null}]`},
	{"empty stations", `[{"runs":1,"stations":[]}]`},
	{"compact", `[{"runs":2,"duration_secs":1e-3,"stations":[{"id":-0,"station":"NS","avg_cw":31.5}]},{}]`},
	{"spread", " [ { \"runs\" : 1 , \"stations\" : [ { } ] } ] \r\n"},
	{"numbers", `[{"duration_secs":-0.0,"channel_busy_secs":1E+2,"channel_utilization":2.5e-324}]`},
	{"escaped name", `[{"stations":[{"station":"NS\n\"q\""}]}]`},
	{"non-ASCII name", `[{"stations":[{"station":"éé"}]}]`},
	{"invalid UTF-8 name", "[{\"stations\":[{\"station\":\"\xff\"}]}]"},
	{"HTML escapes", `[{"stations":[{"station":"<GR&>"}]}]`},
}

func TestDecodeSnapshotsRejects(t *testing.T) {
	for _, tc := range rejectCases {
		t.Run(tc.name, func(t *testing.T) {
			if snaps, err := DecodeSnapshots([]byte(tc.in)); err == nil {
				t.Errorf("accepted %q as %v", tc.in, snaps)
			}
			var std []*Snapshot
			if err := json.Unmarshal([]byte(tc.in), &std); (err == nil) != tc.stdlib {
				t.Errorf("encoding/json error %v, want stdlib=%v", err, tc.stdlib)
			}
		})
	}
}

func TestDecodeSnapshotsMatchesEncodingJSON(t *testing.T) {
	sidecar, err := os.ReadFile(sidecarPath)
	if err != nil {
		t.Fatal(err)
	}
	cases := append(acceptCases, struct{ name, in string }{"sidecar", string(sidecar)})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := checkAgainstEncodingJSON([]byte(tc.in)); err != nil {
				t.Error(err)
			}
			if _, err := DecodeSnapshots([]byte(tc.in)); err != nil {
				t.Errorf("rejected: %v", err)
			}
		})
	}
	nullStations, _ := DecodeSnapshots([]byte(`[{"stations":null}]`))
	emptyStations, _ := DecodeSnapshots([]byte(`[{"stations":[]}]`))
	if nullStations[0].Stations != nil || emptyStations[0].Stations == nil {
		t.Error("stations null and [] must decode as nil and empty")
	}
}

// checkAgainstEncodingJSON is the decoder's differential oracle. When
// DecodeSnapshots accepts data, encoding/json must accept it too and
// give a deeply equal value; when data is EncodeSnapshots output,
// re-encoding the decoded value must give it back byte for byte; and the
// decoder must read back whatever EncodeSnapshots writes for its value.
func checkAgainstEncodingJSON(data []byte) error {
	got, err := DecodeSnapshots(data)
	if err != nil {
		return nil
	}
	var want []*Snapshot
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("accepted %q, encoding/json rejects it: %v", data, err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%q: decoded %#v, encoding/json gives %#v", data, got, want)
	}
	var canon, again bytes.Buffer
	if err := EncodeSnapshots(&canon, want); err != nil {
		return err
	}
	if err := EncodeSnapshots(&again, got); err != nil {
		return err
	}
	if bytes.Equal(canon.Bytes(), data) && !bytes.Equal(again.Bytes(), data) {
		return fmt.Errorf("%q: re-encoding gives %q", data, again.Bytes())
	}
	back, err := DecodeSnapshots(again.Bytes())
	if err != nil {
		return fmt.Errorf("%q: rejected its own re-encoding %q: %v", data, again.Bytes(), err)
	}
	if !reflect.DeepEqual(back, got) {
		return fmt.Errorf("%q: re-encoding does not decode to the same value", data)
	}
	return nil
}

// FuzzDecodeSnapshots checks DecodeSnapshots against encoding/json on
// arbitrary input. The corpus is the reject and accept tables, the real
// sidecar and any crashers committed under testdata/fuzz.
func FuzzDecodeSnapshots(f *testing.F) {
	for _, tc := range rejectCases {
		f.Add([]byte(tc.in))
	}
	for _, tc := range acceptCases {
		f.Add([]byte(tc.in))
	}
	sidecar, err := os.ReadFile(sidecarPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sidecar)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkAgainstEncodingJSON(data); err != nil {
			t.Fatal(err)
		}
	})
}

func BenchmarkDecodeSnapshots(b *testing.B) {
	sidecar, err := os.ReadFile(sidecarPath)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(sidecar)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snaps, err := DecodeSnapshots(sidecar)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = snaps
	}
}

var benchSink []*Snapshot
