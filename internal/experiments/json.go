package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON emits the artifact as stable, machine-readable JSON: struct
// field order is fixed by the type definitions and floats use Go's
// shortest round-trip representation, so encoding the same Result always
// produces the same bytes, and a decode/re-encode cycle is the identity.
// This is the `-json` output of cmd/experiments and the value format of
// the campaign result store.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("experiments: %s json encode: %w", r.ID, err)
	}
	return nil
}

// MarshalStable returns WriteJSON's bytes.
func (r *Result) MarshalStable() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeResult reads one WriteJSON document back; anything but
// whitespace after it is an error. Decoding then re-encoding yields
// byte-identical output (float64s survive the JSON round trip exactly).
func DecodeResult(data []byte) (*Result, error) {
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("experiments: json decode: %w", err)
	}
	return &res, nil
}
