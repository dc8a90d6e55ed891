package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Store is the content-addressed result cache, layered over a Backend.
// Entry layout (object names, any backend):
//
//	objects/<key[:2]>/<key>/result.json   stable Result encoding
//	objects/<key[:2]>/<key>/metrics.json  snapshot array
//	objects/<key[:2]>/<key>/meta.json     key echo + checksums
//
// plus, for directory-backed stores, a local write-ahead journal at
// <root>/journal.jsonl. Commits write the payloads first and meta.json
// last; each object lands atomically (Backend contract), so meta's
// presence is the commit marker — a reader that sees meta sees a
// complete entry, and a crash mid-commit leaves only unreferenced
// payload objects that a re-run simply overwrites with identical bytes.
// That holds for process crashes only: DirBackend does not fsync, so a
// power loss can leave a committed meta.json beside a short payload.
type Store struct {
	b           Backend
	root        string // "" when the backend is not a local directory
	journalPath string // "" disables journaling
}

// Meta is the entry's self-description: the key's preimage fields plus
// content checksums, so `campaign verify` can detect both corruption
// (checksum mismatch) and misfiling (entry name != meta key).
type Meta struct {
	Key           string `json:"key"`
	Module        string `json:"module"`
	Artifact      string `json:"artifact"`
	Seeds         int    `json:"seeds"`
	BaseSeed      int64  `json:"base_seed"`
	DurationNs    int64  `json:"duration_ns"`
	Quick         bool   `json:"quick"`
	ResultSHA256  string `json:"result_sha256"`
	MetricsSHA256 string `json:"metrics_sha256"`
	CreatedUnix   int64  `json:"created_unix"`
}

// RunConfigSpec returns the SpecConfig form of the entry's config — the
// codec that travels between campaignd server and workers.
func (m Meta) RunConfigSpec() SpecConfig {
	return SpecConfig{
		Seeds:    m.Seeds,
		BaseSeed: m.BaseSeed,
		Duration: time.Duration(m.DurationNs).String(),
		Quick:    m.Quick,
	}
}

// OpenStore opens (creating if needed) a directory-backed store rooted
// at dir, sweeping any tmp- staging leftovers, with its write-ahead
// journal at <dir>/journal.jsonl.
func OpenStore(dir string) (*Store, error) {
	b, err := NewDirBackend(dir)
	if err != nil {
		return nil, fmt.Errorf("campaign: opening store: %w", err)
	}
	return &Store{b: b, root: dir, journalPath: filepath.Join(dir, "journal.jsonl")}, nil
}

// NewStore layers the content-addressed cache over an arbitrary
// Backend. journalPath roots the local write-ahead journal; empty
// disables journaling (remote backends may not have a local disk).
func NewStore(b Backend, journalPath string) *Store {
	s := &Store{b: b, journalPath: journalPath}
	if db, ok := b.(*DirBackend); ok {
		s.root = db.Root()
	}
	return s
}

// Backend exposes the persistence layer (campaignd serves auxiliary
// objects — cached trace renders — through it).
func (s *Store) Backend() Backend { return s.b }

// Root returns the store's root directory, or "" for non-directory
// backends.
func (s *Store) Root() string { return s.root }

// JournalPath is where the store's write-ahead journal lives ("" when
// journaling is disabled).
func (s *Store) JournalPath() string { return s.journalPath }

// SpanPath returns JournalPath: spans live in the journal. It is kept
// only for perfbench/campaign.go, a separate module built against this
// tree; every other caller uses JournalPath.
func (s *Store) SpanPath() string { return s.journalPath }

func entryPrefix(key string) string {
	return "objects/" + key[:2] + "/" + key + "/"
}

func metaName(key string) string    { return entryPrefix(key) + "meta.json" }
func resultName(key string) string  { return entryPrefix(key) + "result.json" }
func metricsName(key string) string { return entryPrefix(key) + "metrics.json" }

// Has reports whether a complete entry exists for key (meta.json is
// written last, so its presence implies the whole entry landed).
func (s *Store) Has(key string) bool {
	if len(key) < 2 {
		return false
	}
	_, err := s.b.Stat(metaName(key))
	return err == nil
}

// Put commits one unit's bytes under meta.Key. Checksums are filled in
// here. Payloads land first, meta.json last as the commit marker; every
// object write is atomic, so concurrent readers see either no entry or a
// complete one. If a concurrent writer (another shard or worker pointed
// at the same store) already committed the key, the overwrite is benign
// — content-addressing makes both copies byte-identical.
func (s *Store) Put(meta Meta, result, metricsJSON []byte) error {
	if len(meta.Key) < 2 {
		return fmt.Errorf("campaign: store put: invalid key %q", meta.Key)
	}
	meta.ResultSHA256 = hexSum(result)
	meta.MetricsSHA256 = hexSum(metricsJSON)
	if meta.CreatedUnix == 0 {
		meta.CreatedUnix = time.Now().Unix()
	}
	if s.Has(meta.Key) {
		return nil // a racing identical writer already committed
	}
	metaBytes, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: store put: %w", err)
	}
	for _, obj := range []struct {
		name string
		data []byte
	}{
		{resultName(meta.Key), result},
		{metricsName(meta.Key), metricsJSON},
		{metaName(meta.Key), append(metaBytes, '\n')}, // meta last: the commit marker
	} {
		if err := s.b.Put(obj.name, obj.data); err != nil {
			return fmt.Errorf("campaign: store put: %w", err)
		}
	}
	return nil
}

// Get reads one complete entry back. Absence (or an entry deleted while
// reading) surfaces as an error satisfying errors.Is(err, fs.ErrNotExist).
func (s *Store) Get(key string) (Meta, []byte, []byte, error) {
	var meta Meta
	if len(key) < 2 {
		return meta, nil, nil, fmt.Errorf("campaign: store get: invalid key %q", key)
	}
	metaBytes, err := s.b.Get(metaName(key))
	if err != nil {
		return meta, nil, nil, fmt.Errorf("campaign: store get %s: %w", key, err)
	}
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return meta, nil, nil, fmt.Errorf("campaign: store get %s: %w", key, err)
	}
	result, err := s.b.Get(resultName(key))
	if err != nil {
		return meta, nil, nil, fmt.Errorf("campaign: store get %s: %w", key, err)
	}
	metricsJSON, err := s.b.Get(metricsName(key))
	if err != nil {
		return meta, nil, nil, fmt.Errorf("campaign: store get %s: %w", key, err)
	}
	return meta, result, metricsJSON, nil
}

// GetMeta reads only an entry's meta document.
func (s *Store) GetMeta(key string) (Meta, error) {
	var meta Meta
	if len(key) < 2 {
		return meta, fmt.Errorf("campaign: store meta: invalid key %q", key)
	}
	metaBytes, err := s.b.Get(metaName(key))
	if err != nil {
		return meta, fmt.Errorf("campaign: store meta %s: %w", key, err)
	}
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return meta, fmt.Errorf("campaign: store meta %s: %w", key, err)
	}
	return meta, nil
}

// GetResult reads only an entry's result payload.
func (s *Store) GetResult(key string) ([]byte, error) {
	if len(key) < 2 {
		return nil, fmt.Errorf("campaign: store result: invalid key %q", key)
	}
	data, err := s.b.Get(resultName(key))
	if err != nil {
		return nil, fmt.Errorf("campaign: store result %s: %w", key, err)
	}
	return data, nil
}

// GetMetrics reads only an entry's telemetry payload.
func (s *Store) GetMetrics(key string) ([]byte, error) {
	if len(key) < 2 {
		return nil, fmt.Errorf("campaign: store metrics: invalid key %q", key)
	}
	data, err := s.b.Get(metricsName(key))
	if err != nil {
		return nil, fmt.Errorf("campaign: store metrics %s: %w", key, err)
	}
	return data, nil
}

// Keys lists every committed entry, sorted. Only entries whose commit
// marker landed are reported, so a concurrent half-written entry is
// invisible.
func (s *Store) Keys() ([]string, error) {
	names, err := s.b.List("objects/")
	if err != nil {
		return nil, fmt.Errorf("campaign: store keys: %w", err)
	}
	var keys []string
	for _, name := range names {
		if !strings.HasSuffix(name, "/meta.json") {
			continue
		}
		parts := strings.Split(name, "/")
		if len(parts) != 4 {
			continue
		}
		keys = append(keys, parts[2])
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete removes an entry (no error if absent). The commit marker goes
// first, un-committing the entry, so a concurrent reader sees either the
// complete entry or a clean not-exist — never a checksum mismatch.
func (s *Store) Delete(key string) error {
	if len(key) < 2 {
		return nil
	}
	for _, name := range []string{metaName(key), resultName(key), metricsName(key)} {
		if err := s.b.Delete(name); err != nil {
			return fmt.Errorf("campaign: store delete %s: %w", key, err)
		}
	}
	return nil
}

// VerifyEntry checks one entry end to end: meta parses, the entry name
// matches the meta key, both payload checksums hold, and the result
// still decodes as a Result document.
func (s *Store) VerifyEntry(key string) error {
	meta, result, metricsJSON, err := s.Get(key)
	if err != nil {
		return err
	}
	if meta.Key != key {
		return fmt.Errorf("campaign: entry %s: meta key mismatch (%s)", key, meta.Key)
	}
	if got := hexSum(result); got != meta.ResultSHA256 {
		return fmt.Errorf("campaign: entry %s: result.json checksum mismatch", key)
	}
	if got := hexSum(metricsJSON); got != meta.MetricsSHA256 {
		return fmt.Errorf("campaign: entry %s: metrics.json checksum mismatch", key)
	}
	if err := CheckPayloads(result, metricsJSON); err != nil {
		return fmt.Errorf("campaign: entry %s: %w", key, err)
	}
	return nil
}

func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
