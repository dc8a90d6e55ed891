package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"greedy80211/internal/mac"
	"greedy80211/internal/sim"
)

// FormatVersion identifies the JSONL trace file layout.
const FormatVersion = "greedy80211-trace/v1"

// StationName pairs a station id with its scenario name.
type StationName struct {
	ID   mac.NodeID `json:"id"`
	Name string     `json:"name"`
}

// Meta is the header line of a JSONL trace file: provenance plus the
// timing needed to re-run the invariant checker offline.
type Meta struct {
	Version  string        `json:"v"`
	Label    string        `json:"label,omitempty"`
	Seed     int64         `json:"seed"`
	Timing   Timing        `json:"timing"`
	Stations []StationName `json:"stations,omitempty"`
	Events   uint64        `json:"events"`
	Dropped  uint64        `json:"dropped,omitempty"`
}

// Meta assembles the header for this recorder's retained events.
func (r *Recorder) Meta(label string, seed int64) Meta {
	m := Meta{
		Version: FormatVersion,
		Label:   label,
		Seed:    seed,
		Timing:  r.timing,
		Events:  r.total,
		Dropped: r.Dropped(),
	}
	for id, name := range r.names {
		m.Stations = append(m.Stations, StationName{ID: id, Name: name})
	}
	sort.Slice(m.Stations, func(i, j int) bool { return m.Stations[i].ID < m.Stations[j].ID })
	return m
}

// Name resolves a station id to its scenario name, falling back to "sta<id>".
func (m Meta) Name(id mac.NodeID) string {
	for _, s := range m.Stations {
		if s.ID == id {
			return s.Name
		}
	}
	return fmt.Sprintf("sta%d", id)
}

// eventJSON is the stable wire encoding of an Event: zero-valued fields
// are omitted, so round-tripping is lossless and lines stay compact.
type eventJSON struct {
	K     string     `json:"k"`
	At    sim.Time   `json:"at"`
	Sta   mac.NodeID `json:"sta"`
	Ft    int        `json:"ft,omitempty"`
	Src   mac.NodeID `json:"src,omitempty"`
	Dst   mac.NodeID `json:"dst,omitempty"`
	Seq   uint16     `json:"seq,omitempty"`
	Len   int        `json:"len,omitempty"`
	Rty   bool       `json:"retry,omitempty"`
	Dur   sim.Time   `json:"dur,omitempty"`
	Air   sim.Time   `json:"air,omitempty"`
	RSSI  float64    `json:"rssi,omitempty"`
	Until sim.Time   `json:"until,omitempty"`
	CW    int        `json:"cw,omitempty"`
	Slots int        `json:"slots,omitempty"`
	Retr  int        `json:"retries,omitempty"`
	QLen  int        `json:"qlen,omitempty"`
	EIFS  bool       `json:"eifs,omitempty"`
	Long  bool       `json:"long,omitempty"`
	OK    bool       `json:"ok,omitempty"`
}

func toWire(e Event) eventJSON {
	return eventJSON{
		K:     e.Kind.String(),
		At:    e.At,
		Sta:   e.Station,
		Ft:    int(e.Frame.Type),
		Src:   e.Frame.Src,
		Dst:   e.Frame.Dst,
		Seq:   e.Frame.Seq,
		Len:   e.Frame.Bytes,
		Rty:   e.Frame.Retry,
		Dur:   e.Frame.Duration,
		Air:   e.Frame.Airtime,
		RSSI:  e.RSSIDBm,
		Until: e.Until,
		CW:    e.CW,
		Slots: e.Slots,
		Retr:  e.Retries,
		QLen:  e.QueueLen,
		EIFS:  e.EIFS,
		Long:  e.Long,
		OK:    e.OK,
	}
}

func fromWire(w eventJSON) (Event, error) {
	k, ok := kindByName[w.K]
	if !ok {
		return Event{}, fmt.Errorf("trace: unknown event kind %q", w.K)
	}
	return Event{
		Kind:    k,
		At:      w.At,
		Station: w.Sta,
		Frame: FrameInfo{
			Type:     mac.FrameType(w.Ft),
			Src:      w.Src,
			Dst:      w.Dst,
			Seq:      w.Seq,
			Bytes:    w.Len,
			Retry:    w.Rty,
			Duration: w.Dur,
			Airtime:  w.Air,
		},
		RSSIDBm:  w.RSSI,
		Until:    w.Until,
		CW:       w.CW,
		Slots:    w.Slots,
		Retries:  w.Retr,
		QueueLen: w.QLen,
		EIFS:     w.EIFS,
		Long:     w.Long,
		OK:       w.OK,
	}, nil
}

// WriteJSONL writes the header line followed by one event per line. The
// output is byte-deterministic for a given (meta, events) input.
func WriteJSONL(w io.Writer, meta Meta, events []Event) error {
	bw := bufio.NewWriter(w)
	meta.Version = FormatVersion
	enc := json.NewEncoder(bw)
	if err := enc.Encode(meta); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	for i, e := range events {
		if err := enc.Encode(toWire(e)); err != nil {
			return fmt.Errorf("trace: writing event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a trace file written by WriteJSONL. Blank lines are
// skipped; the first other line must be the header, and exactly the
// header's events − dropped event lines must follow, so a truncated (or
// padded) export is an error rather than a silently shorter trace.
func ReadJSONL(r io.Reader) (Meta, []Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var meta Meta
	var events []Event
	var want uint64 // event lines the header promises
	header := false
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if !header {
			if err := json.Unmarshal(raw, &meta); err != nil {
				return Meta{}, nil, fmt.Errorf("trace: line %d: header: %w", line, err)
			}
			if meta.Version != FormatVersion {
				return Meta{}, nil, fmt.Errorf("trace: unsupported format %q (want %q)", meta.Version, FormatVersion)
			}
			if meta.Dropped > meta.Events {
				return Meta{}, nil, fmt.Errorf("trace: header drops %d of %d events", meta.Dropped, meta.Events)
			}
			if len(meta.Stations) == 0 {
				meta.Stations = nil // "stations":[] reads as no stations, as written
			}
			want = meta.Events - meta.Dropped
			header = true
			continue
		}
		if uint64(len(events)) == want {
			return Meta{}, nil, fmt.Errorf("trace: line %d: more than the header's %d events", line, want)
		}
		var w eventJSON
		if err := json.Unmarshal(raw, &w); err != nil {
			return Meta{}, nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		e, err := fromWire(w)
		if err != nil {
			return Meta{}, nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return Meta{}, nil, fmt.Errorf("trace: reading: %w", err)
	}
	if !header {
		return Meta{}, nil, fmt.Errorf("trace: no header line (empty trace file)")
	}
	if n := uint64(len(events)); n != want {
		return Meta{}, nil, fmt.Errorf("trace: truncated: header promises %d events, file holds %d", want, n)
	}
	return meta, events, nil
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (Perfetto-viewable). Maps marshal with sorted keys, so the output is
// deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func microseconds(t sim.Time) float64 { return float64(t) / 1e3 }

// WriteChromeTrace renders the events as Chrome trace-event JSON: one
// track (thread) per station, "X" slices for transmissions, NAV-blocked
// intervals, and backoff countdowns, instants for the rest. Load the
// output in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, meta Meta, events []Event) error {
	const pid = 1
	var out []chromeEvent

	// Track metadata: name every station's thread, ordered by id.
	stations := map[mac.NodeID]bool{}
	for _, s := range meta.Stations {
		stations[s.ID] = true
	}
	for _, e := range events {
		stations[e.Station] = true
	}
	ids := make([]mac.NodeID, 0, len(stations))
	for id := range stations {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": "greedy80211 " + meta.Label},
	})
	for _, id := range ids {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: int(id),
			Args: map[string]any{"name": meta.Name(id)},
		})
	}

	var last sim.Time
	for _, e := range events {
		if e.At > last {
			last = e.At
		}
		if e.Kind == KindTransmit && e.At+e.Frame.Airtime > last {
			last = e.At + e.Frame.Airtime
		}
	}

	// Open intervals per station, closed by their end events (or at the
	// trace horizon).
	type open struct {
		at   sim.Time
		name string
		args map[string]any
	}
	navOpen := map[mac.NodeID]*open{}
	boOpen := map[mac.NodeID]*open{}
	slice := func(tid mac.NodeID, cat string, o *open, end sim.Time) {
		if end < o.at {
			end = o.at
		}
		out = append(out, chromeEvent{
			Name: o.name, Cat: cat, Ph: "X",
			Ts: microseconds(o.at), Dur: microseconds(end - o.at),
			Pid: pid, Tid: int(tid), Args: o.args,
		})
	}
	instant := func(e Event, cat, name string, args map[string]any) {
		out = append(out, chromeEvent{
			Name: name, Cat: cat, Ph: "i", S: "t",
			Ts: microseconds(e.At), Pid: pid, Tid: int(e.Station), Args: args,
		})
	}

	for _, e := range events {
		switch e.Kind {
		case KindTransmit:
			name := fmt.Sprintf("%s %d→%d", e.Frame.Type, e.Frame.Src, e.Frame.Dst)
			if e.Frame.Retry {
				name += " (retry)"
			}
			out = append(out, chromeEvent{
				Name: name, Cat: "tx", Ph: "X",
				Ts: microseconds(e.At), Dur: microseconds(e.Frame.Airtime),
				Pid: pid, Tid: int(e.Station),
				Args: map[string]any{
					"seq": e.Frame.Seq, "bytes": e.Frame.Bytes,
					"nav_us": microseconds(e.Frame.Duration),
				},
			})
		case KindDecode:
			instant(e, "rx", fmt.Sprintf("RX %s %d→%d", e.Frame.Type, e.Frame.Src, e.Frame.Dst),
				map[string]any{"seq": e.Frame.Seq, "rssi_dbm": e.RSSIDBm, "nav_us": microseconds(e.Frame.Duration)})
		case KindCorrupt:
			instant(e, "rx", fmt.Sprintf("ERR %s %d→%d", e.Frame.Type, e.Frame.Src, e.Frame.Dst),
				map[string]any{"seq": e.Frame.Seq, "rssi_dbm": e.RSSIDBm})
		case KindNAVBlockedStart:
			navOpen[e.Station] = &open{at: e.At, name: "NAV-blocked",
				args: map[string]any{"until_us": microseconds(e.Until)}}
		case KindNAVBlockedEnd:
			if o := navOpen[e.Station]; o != nil {
				slice(e.Station, "nav", o, e.At)
				delete(navOpen, e.Station)
			}
		case KindBackoffResume:
			boOpen[e.Station] = &open{at: e.At, name: fmt.Sprintf("backoff (%d slots)", e.Slots),
				args: map[string]any{"slots": e.Slots}}
		case KindBackoffFreeze, KindBackoffExpire:
			if o := boOpen[e.Station]; o != nil {
				if e.Kind == KindBackoffFreeze {
					o.args["remaining"] = e.Slots
				}
				slice(e.Station, "backoff", o, e.At)
				delete(boOpen, e.Station)
			}
		case KindNAVUpdate:
			instant(e, "mac", "NAV-SET", map[string]any{"until_us": microseconds(e.Until)})
		case KindBackoffDraw:
			instant(e, "mac", "BO-DRAW", map[string]any{"cw": e.CW, "slots": e.Slots})
		case KindCWDouble, KindCWReset:
			instant(e, "mac", e.Kind.String(), map[string]any{"cw": e.CW})
		case KindRetry:
			counter := "short"
			if e.Long {
				counter = "long"
			}
			instant(e, "mac", "RETRY", map[string]any{"counter": counter, "retries": e.Retries})
		case KindQueueDrop:
			instant(e, "mac", "Q-DROP", map[string]any{"qlen": e.QueueLen})
		case KindMSDUDone:
			instant(e, "mac", "MSDU-DONE", map[string]any{"ok": e.OK, "seq": e.Frame.Seq})
		}
	}
	// Close intervals still open at the trace horizon, in station order
	// for determinism.
	for _, id := range ids {
		if o := navOpen[id]; o != nil {
			end := sim.Time(0)
			if u, ok := o.args["until_us"].(float64); ok {
				end = sim.Time(u * 1e3)
			}
			if end > last || end == 0 {
				end = last
			}
			slice(id, "nav", o, end)
		}
		if o := boOpen[id]; o != nil {
			slice(id, "backoff", o, last)
		}
	}

	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: out, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
