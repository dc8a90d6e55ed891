package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"greedy80211/internal/mac"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// recordSample drives a recorder through a representative mix of channel
// and MAC events, exercising every wire field at least once.
func recordSample() *Recorder {
	r := NewRecorder(64)
	r.SetParams(phys.Params80211B())
	r.SetStationName(1, "S1")
	r.SetStationName(2, "R1")

	data := &mac.Frame{Type: mac.FrameData, Src: 1, Dst: 2, Seq: 9, Retry: true,
		MACBytes: 1052, Duration: 25 * sim.Millisecond}
	r.OnMACEvent(&mac.ProbeEvent{Kind: mac.ProbeEnqueue, At: 10 * us, Station: 1,
		Frame: mac.FrameData, Dst: 2, Seq: 9, QueueLen: 1})
	r.OnMACEvent(&mac.ProbeEvent{Kind: mac.ProbeBackoffDraw, At: 50 * us, Station: 1,
		CW: 31, Slots: 7})
	r.OnMACEvent(&mac.ProbeEvent{Kind: mac.ProbeBackoffResume, At: 100 * us, Station: 1, Slots: 7})
	r.OnMACEvent(&mac.ProbeEvent{Kind: mac.ProbeBackoffExpire, At: 240 * us, Station: 1})
	r.OnMACEvent(&mac.ProbeEvent{Kind: mac.ProbeTxContend, At: 240 * us, Station: 1,
		Frame: mac.FrameData, Dst: 2, Seq: 9})
	r.OnTransmit(1, data, 240*us, 958*us)
	r.OnReceive(2, data, mac.RxInfo{Decoded: true, RSSIDBm: -47.5}, 1198*us)
	r.OnMACEvent(&mac.ProbeEvent{Kind: mac.ProbeNAVUpdate, At: 1198 * us, Station: 3,
		Until: 26198 * us})
	r.OnMACEvent(&mac.ProbeEvent{Kind: mac.ProbeNAVBlockedStart, At: 1208 * us, Station: 3,
		Until: 26198 * us})
	ack := &mac.Frame{Type: mac.FrameACK, Src: 2, Dst: 1, MACBytes: 14}
	r.OnTransmit(2, ack, 1208*us, 304*us)
	r.OnReceive(1, ack, mac.RxInfo{Decoded: false, RSSIDBm: -91}, 1512*us)
	r.OnMACEvent(&mac.ProbeEvent{Kind: mac.ProbeRetry, At: 1512 * us, Station: 1,
		Retries: 1, Long: true, Frame: mac.FrameData, Dst: 2, Seq: 9})
	r.OnMACEvent(&mac.ProbeEvent{Kind: mac.ProbeMSDUDone, At: 3000 * us, Station: 1,
		OK: true, Frame: mac.FrameData, Dst: 2, Seq: 9})
	return r
}

// TestJSONLRoundTrip: Write → Read must reproduce the meta header and every
// event exactly, including retry flags and NAV durations.
func TestJSONLRoundTrip(t *testing.T) {
	r := recordSample()
	meta := r.Meta("fig1", 42)
	events := r.Events()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, meta, events); err != nil {
		t.Fatal(err)
	}
	gotMeta, gotEvents, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	meta.Version = FormatVersion // WriteJSONL stamps it
	if !reflect.DeepEqual(gotMeta, meta) {
		t.Errorf("meta mismatch:\n got %+v\nwant %+v", gotMeta, meta)
	}
	if !reflect.DeepEqual(gotEvents, events) {
		t.Errorf("events mismatch:\n got %+v\nwant %+v", gotEvents, events)
	}
	// The inflated-NAV signature must survive the round trip.
	var sawRetry, sawNAV bool
	for _, e := range gotEvents {
		if e.Kind == KindTransmit && e.Frame.Retry {
			sawRetry = true
		}
		if e.Kind == KindTransmit && e.Frame.Duration == 25*sim.Millisecond {
			sawNAV = true
		}
	}
	if !sawRetry || !sawNAV {
		t.Errorf("retry=%v nav=%v flags lost in round trip", sawRetry, sawNAV)
	}
}

// sampleJSONL is recordSample's export as JSONL.
func sampleJSONL(t testing.TB) string {
	t.Helper()
	r := recordSample()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Meta("fig1", 42), r.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestReadJSONLRejectsGarbage covers the error paths: wrong version, no
// header, empty or blank-only input, an event line where the header
// belongs, and an event count that disagrees with the header.
func TestReadJSONLRejectsGarbage(t *testing.T) {
	sample := sampleJSONL(t)
	lines := strings.SplitAfter(sample, "\n") // header, events..., ""
	header := lines[0]
	overDropped := strings.Replace(header, `"events":13`, `"events":13,"dropped":14`, 1)
	if overDropped == header {
		t.Fatalf("sample header lacks the 13-event count: %s", header)
	}
	for name, in := range map[string]string{
		"empty":        "",
		"wrongVersion": `{"v":"other/v9"}` + "\n",
		"notJSON":      "hello\n",
		"blankOnly":    "\n  \n\t\n",
		"eventFirst":   strings.Join(lines[1:], ""),
		"headerOnly":   header,
		"truncated":    strings.Join(lines[:len(lines)-2], ""),
		"padded":       sample + lines[1],
		"overDropped":  overDropped,
	} {
		if _, _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestReadJSONLSkipsBlankLines: blank lines anywhere, including before
// the header, do not change what a file reads as.
func TestReadJSONLSkipsBlankLines(t *testing.T) {
	sample := sampleJSONL(t)
	wantMeta, wantEvents, err := ReadJSONL(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	spaced := "\n  \n" + strings.ReplaceAll(sample, "\n", "\n\n")
	meta, events, err := ReadJSONL(strings.NewReader(spaced))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(meta, wantMeta) || !reflect.DeepEqual(events, wantEvents) {
		t.Error("blank lines changed the parsed trace")
	}
}

// FuzzReadJSONL: no input makes the reader panic, and any input it
// accepts survives WriteJSONL → ReadJSONL unchanged.
func FuzzReadJSONL(f *testing.F) {
	sample := sampleJSONL(f)
	f.Add(sample)
	f.Add("\n" + sample)
	f.Add(strings.SplitAfter(sample, "\n")[0])
	f.Fuzz(func(t *testing.T, in string) {
		meta, events, err := ReadJSONL(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, meta, events); err != nil {
			t.Fatalf("rewriting an accepted trace: %v", err)
		}
		meta2, events2, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-reading an accepted trace: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(meta2, meta) {
			t.Errorf("meta changed in round trip:\n got %+v\nwant %+v", meta2, meta)
		}
		if !reflect.DeepEqual(events2, events) {
			t.Errorf("events changed in round trip:\n got %+v\nwant %+v", events2, events)
		}
	})
}

// TestChromeTraceExport: the export must be valid JSON with per-station
// thread metadata, TX slices, and NAV-blocked slices.
func TestChromeTraceExport(t *testing.T) {
	r := recordSample()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Meta("fig1", 42), r.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var threads, slices, navSlices int
	for _, e := range doc.TraceEvents {
		switch {
		case e.Name == "thread_name":
			threads++
		case e.Ph == "X" && strings.HasPrefix(e.Name, "DATA"):
			slices++
			if !strings.Contains(e.Name, "(retry)") {
				t.Errorf("retry TX slice name %q lacks the retry marker", e.Name)
			}
			if e.Args["nav_us"] == nil {
				t.Errorf("TX slice args %v lack nav_us", e.Args)
			}
		case e.Ph == "X" && e.Name == "NAV-blocked":
			navSlices++
		}
	}
	if threads < 3 {
		t.Errorf("thread_name metadata = %d, want one per station (3)", threads)
	}
	if slices == 0 || navSlices == 0 {
		t.Errorf("TX slices = %d, NAV-blocked slices = %d; want both > 0", slices, navSlices)
	}
}

// TestRenderTimeline: the ASCII view must label stations by name and show
// transmissions and NAV-blocked intervals with the legend characters.
func TestRenderTimeline(t *testing.T) {
	r := recordSample()
	out := RenderTimeline(r.Meta("fig1", 42), r.Events(), 0, 0, 100)
	if !strings.Contains(out, "S1") || !strings.Contains(out, "R1") {
		t.Errorf("timeline missing station names:\n%s", out)
	}
	if !strings.Contains(out, "D") {
		t.Errorf("timeline missing a data TX mark:\n%s", out)
	}
	if !strings.Contains(out, "N") {
		t.Errorf("timeline missing the NAV-blocked band:\n%s", out)
	}
	if !strings.Contains(out, "timeline") {
		t.Errorf("timeline missing header:\n%s", out)
	}
}

// TestCollectorCanonicalOrder: recordings come back sorted by seed no
// matter the Start order, so exports are deterministic under parallel
// scheduling. Recordings that share a seed order by their retained
// streams: events that tie on (time, kind, station) compare by rendered
// line, and identical streams keep their Start order. The RSSI pair
// shows the line compare is textual: "rssi=-50.0dBm" sorts before
// "rssi=-60.0dBm", the reverse of numeric order.
func TestCollectorCanonicalOrder(t *testing.T) {
	c := NewCollector(4) // the seed-2 streams below wrap their rings
	for _, seed := range []int64{3, 1} {
		rec := c.Start(seed)
		rec.OnTransmit(1, &mac.Frame{Type: mac.FrameData, Src: 1, Dst: 2, MACBytes: 100},
			sim.Time(seed)*us, us)
	}
	names := make(map[*Recorder]string)
	for _, r := range []struct {
		name string
		rssi float64
	}{{"first", -50}, {"other", -60}, {"twin", -50}} {
		rec := c.Start(2)
		names[rec] = r.name
		for i := 0; i < 6; i++ {
			f := &mac.Frame{Type: mac.FrameData, Src: 1, Dst: 2, Seq: uint16(i), MACBytes: 100}
			at := sim.Time(i) * 10 * us
			rec.OnTransmit(1, f, at, us)
			rec.OnReceive(2, f, mac.RxInfo{Decoded: true, RSSIDBm: r.rssi}, at+us)
		}
	}
	recs := c.Recordings()
	want := []struct {
		seed int64
		name string
	}{{1, ""}, {2, "first"}, {2, "twin"}, {2, "other"}, {3, ""}}
	if len(recs) != len(want) {
		t.Fatalf("recordings = %d, want %d", len(recs), len(want))
	}
	for i, w := range want {
		if recs[i].Seed != w.seed || names[recs[i].Recorder] != w.name {
			t.Errorf("recording %d = seed %d %q, want seed %d %q",
				i, recs[i].Seed, names[recs[i].Recorder], w.seed, w.name)
		}
	}
}

// TestCollectorChecksWired: every recording carries a live checker fed
// by its recorder, and violations surface with their seed.
func TestCollectorChecksWired(t *testing.T) {
	c := NewCollector(16)
	rec := c.Start(7)
	// A NAV-ignoring transmission, delivered through the probe path.
	rec.OnMACEvent(&mac.ProbeEvent{Kind: mac.ProbeNAVUpdate, At: 0, Station: 1, Until: sim.Second})
	rec.OnMACEvent(&mac.ProbeEvent{Kind: mac.ProbeTxContend, At: 100 * us, Station: 1,
		Frame: mac.FrameRTS, Dst: 2})
	if c.ViolationCount() != 1 {
		t.Fatalf("violations = %d, want 1", c.ViolationCount())
	}
	var verr *ViolationError
	if err := Check(c.Recordings()); !errors.As(err, &verr) || verr.Count != 1 || len(verr.Violations) != 1 {
		t.Fatalf("Check = %v, want one violation", err)
	}
	if v := verr.Violations[0]; !strings.HasPrefix(v, "seed=7 ") || !strings.Contains(v, InvNAV) {
		t.Errorf("violation = %q, want seed prefix and invariant name", v)
	}
}

// TestExportDir writes one JSONL and one timeline file per recording.
func TestExportDir(t *testing.T) {
	c := NewCollector(16)
	rec := c.Start(5)
	rec.OnTransmit(1, &mac.Frame{Type: mac.FrameData, Src: 1, Dst: 2, MACBytes: 100}, 0, us)
	dir := t.TempDir()
	paths, err := ExportDir(dir, "figX", c.Recordings())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v, want 2 files", paths)
	}
	base := filepath.Base(paths[0])
	if base != "figX_run0_seed5.trace.jsonl" {
		t.Errorf("jsonl name = %s", base)
	}
	for _, p := range paths {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: err=%v size=%d", p, err, st.Size())
		}
	}
	f, err := os.Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	meta, events, err := ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Label != "figX" || meta.Seed != 5 || len(events) != 1 {
		t.Errorf("reread meta=%+v events=%d", meta, len(events))
	}
}
