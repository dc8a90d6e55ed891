package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// EncodeSnapshots writes snapshots as one stable JSON array (an empty or
// nil slice encodes as "[]"), preserving order. This is the campaign
// store's sidecar value format: float64 fields use Go's shortest
// round-trip representation, so encode → decode → encode is the
// identity and a snapshot assembled from the store emits byte-identical
// JSONL/CSV to one that never left memory.
func EncodeSnapshots(w io.Writer, snaps []*Snapshot) error {
	if snaps == nil {
		snaps = []*Snapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snaps); err != nil {
		return fmt.Errorf("metrics: snapshots encode: %w", err)
	}
	return nil
}

// DecodeSnapshots reads an EncodeSnapshots document back in one pass over
// data. It is stricter than encoding/json: an unknown, case-folded or
// repeated key, a null snapshot or station, a null scalar, a number
// outside JSON's grammar (+1, .5, 01, hex, Inf, NaN) and anything but
// whitespace after the array are errors. Whatever it accepts,
// encoding/json accepts too and decodes to a deeply equal value;
// "stations": null stays nil and [] stays empty, so re-encoding is
// byte-identical.
func DecodeSnapshots(data []byte) ([]*Snapshot, error) {
	d := decoder{data: data}
	snaps, err := d.snapshots()
	if err == nil {
		d.space()
		if d.pos < len(d.data) {
			err = d.fail("trailing data")
		}
	}
	if err != nil {
		return nil, fmt.Errorf("metrics: snapshots decode: %w", err)
	}
	return snaps, nil
}

// The JSON keys of Snapshot and Station, as their struct tags name them.
var (
	snapshotKeys = []string{"runs", "duration_secs", "channel_busy_secs",
		"channel_utilization", "stations"}
	stationKeys = []string{"id", "station", "avg_cw", "rts_sent", "data_sent",
		"ack_sent", "retries", "msdu_success", "airtime_secs", "utilization",
		"nav_blocked_secs", "backoff_wait_secs"}
)

// decoder is DecodeSnapshots' cursor: data[pos:] is still unread.
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) snapshots() ([]*Snapshot, error) {
	snaps := []*Snapshot{}
	err := d.array(func() error {
		s := new(Snapshot)
		snaps = append(snaps, s)
		return d.snapshot(s)
	})
	return snaps, err
}

func (d *decoder) snapshot(s *Snapshot) error {
	return d.object(snapshotKeys, func(key string) (err error) {
		switch key {
		case "runs":
			s.Runs, err = d.int()
		case "duration_secs":
			s.DurationSecs, err = d.float()
		case "channel_busy_secs":
			s.ChannelBusySecs, err = d.float()
		case "channel_utilization":
			s.ChannelUtilization, err = d.float()
		case "stations":
			s.Stations, err = d.stations()
		}
		return err
	})
}

// stations reads a snapshot's station array. null decodes as nil and []
// as an empty slice, as encoding/json has them.
func (d *decoder) stations() ([]Station, error) {
	if d.null() {
		return nil, nil
	}
	sts := []Station{}
	err := d.array(func() error {
		sts = append(sts, Station{})
		return d.station(&sts[len(sts)-1])
	})
	return sts, err
}

func (d *decoder) station(st *Station) error {
	return d.object(stationKeys, func(key string) (err error) {
		switch key {
		case "id":
			st.ID, err = d.int()
		case "station":
			st.Name, err = d.str()
		case "avg_cw":
			st.AvgCW, err = d.float()
		case "rts_sent":
			st.RTSSent, err = d.float()
		case "data_sent":
			st.DataSent, err = d.float()
		case "ack_sent":
			st.ACKSent, err = d.float()
		case "retries":
			st.Retries, err = d.float()
		case "msdu_success":
			st.MSDUSuccess, err = d.float()
		case "airtime_secs":
			st.AirtimeSecs, err = d.float()
		case "utilization":
			st.Utilization, err = d.float()
		case "nav_blocked_secs":
			st.NAVBlockedSecs, err = d.float()
		case "backoff_wait_secs":
			st.BackoffWaitSecs, err = d.float()
		}
		return err
	})
}

// array reads a JSON array, calling elem to read each element.
func (d *decoder) array(elem func() error) error {
	if err := d.expect('['); err != nil {
		return err
	}
	if d.space(); d.peek() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if done, err := d.next(']'); done || err != nil {
			return err
		}
	}
}

// object reads a JSON object whose keys are distinct members of keys,
// calling member with the matched key to read each value. Keys are
// compared byte for byte with no case folding; a key holding an escape
// matches none.
func (d *decoder) object(keys []string, member func(key string) error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	if d.space(); d.peek() == '}' {
		d.pos++
		return nil
	}
	var seen uint32 // bit i: keys[i] was read
	for {
		start := d.pos
		tok, plain, err := d.stringToken()
		if err != nil {
			return err
		}
		i := -1
		if plain {
			i = index(keys, tok[1:len(tok)-1])
		}
		switch {
		case i < 0:
			d.pos = start
			return d.fail("unknown key %s", tok)
		case seen&(1<<i) != 0:
			d.pos = start
			return d.fail("duplicate key %s", tok)
		}
		seen |= 1 << i
		if err := d.expect(':'); err != nil {
			return err
		}
		if err := member(keys[i]); err != nil {
			return err
		}
		if done, err := d.next('}'); done || err != nil {
			return err
		}
	}
}

// index returns the position of name in keys, or -1.
func index(keys []string, name []byte) int {
	for i, k := range keys {
		if string(name) == k {
			return i
		}
	}
	return -1
}

// next reads the separator after an array element or object member: it
// reports false after a ',' and true after the closing byte.
func (d *decoder) next(closing byte) (bool, error) {
	d.space()
	switch d.peek() {
	case ',':
		d.pos++
		return false, nil
	case closing:
		d.pos++
		return true, nil
	}
	return false, d.fail("want ',' or %q", closing)
}

// int reads a JSON integer: a number token with no fraction or exponent,
// which is all encoding/json takes for an int field.
func (d *decoder) int() (int, error) {
	tok, integral, err := d.number()
	if err != nil {
		return 0, err
	}
	if !integral {
		return 0, d.fail("want an integer, got %s", tok)
	}
	n, err := strconv.Atoi(string(tok))
	if err != nil {
		return 0, d.fail("integer %s out of range", tok)
	}
	return n, nil
}

func (d *decoder) float() (float64, error) {
	tok, _, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, d.fail("number %s out of range", tok)
	}
	return f, nil
}

// number reads a number token, checked against JSON's grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? before strconv sees it,
// since strconv also takes forms JSON forbids. integral reports that the
// token has neither fraction nor exponent.
func (d *decoder) number() (tok []byte, integral bool, err error) {
	d.space()
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, false, d.fail("want a number")
	}
	integral = true
	if d.peek() == '.' {
		d.pos++
		if !d.digits() {
			return nil, false, d.fail("want a digit after '.'")
		}
		integral = false
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return nil, false, d.fail("want a digit in the exponent")
		}
		integral = false
	}
	return d.data[start:d.pos], integral, nil
}

// digits skips a run of decimal digits and reports whether there was one.
func (d *decoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// str reads a JSON string. A token of printable ASCII without escapes
// is sliced directly; any other is unquoted by encoding/json, which
// validates its escapes and replaces invalid UTF-8 exactly as a
// whole-document decode would.
func (d *decoder) str() (string, error) {
	start := d.pos
	tok, plain, err := d.stringToken()
	if err != nil {
		return "", err
	}
	if plain {
		return string(tok[1 : len(tok)-1]), nil
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		d.pos = start
		return "", d.fail("bad string: %v", err)
	}
	return s, nil
}

// stringToken reads a quoted string token, opening and closing quotes
// included. plain reports that it holds only printable ASCII and no
// backslash; other tokens still need their escapes checked.
func (d *decoder) stringToken() (tok []byte, plain bool, err error) {
	if err := d.expect('"'); err != nil {
		return nil, false, err
	}
	start := d.pos - 1
	plain = true
	for i := d.pos; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:d.pos], plain, nil
		case c == '\\':
			plain = false
			i++ // the escaped byte, so an escaped quote ends nothing
		case c < 0x20:
			d.pos = i
			return nil, false, d.fail("control character in string")
		case c >= 0x80:
			plain = false
		}
	}
	d.pos = len(d.data)
	return nil, false, d.fail("unterminated string")
}

// null reads the literal null if it comes next.
func (d *decoder) null() bool {
	d.space()
	if len(d.data)-d.pos >= 4 && string(d.data[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// expect skips whitespace and reads the byte c.
func (d *decoder) expect(c byte) error {
	if d.space(); d.peek() != c {
		return d.fail("want %q", c)
	}
	d.pos++
	return nil
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\n', '\t', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end of the data.
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// fail reports a syntax error at the cursor.
func (d *decoder) fail(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}
