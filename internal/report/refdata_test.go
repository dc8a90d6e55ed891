package report

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
	"testing/fstest"
)

func TestLoadEmbedded(t *testing.T) {
	sets, err := LoadEmbedded()
	if err != nil {
		t.Fatalf("LoadEmbedded: %v", err)
	}
	if len(sets) < 5 {
		t.Fatalf("only %d embedded refdata sets", len(sets))
	}
	cfg, err := SharedConfig(sets)
	if err != nil {
		t.Fatalf("SharedConfig: %v", err)
	}
	if cfg.Seeds == 0 || cfg.Duration == "" {
		t.Fatalf("profile not pinned: %+v", cfg)
	}
	// Registry order: fig1 must precede tab4 and ext*.
	ids := Artifacts(sets)
	var fig1, tab4 int
	for i, id := range ids {
		switch id {
		case "fig1":
			fig1 = i
		case "tab4":
			tab4 = i
		}
	}
	if fig1 >= tab4 {
		t.Errorf("artifact order %v: figures should precede tables", ids)
	}
}

func writeRefdata(t *testing.T, name, body string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestLoadDirRejectsBadFiles(t *testing.T) {
	cases := map[string]struct {
		file, body, wantErr string
	}{
		"unknown field": {
			"fig1.json",
			`{"artifact":"fig1","config":{"seeds":1,"duration":"1s"},"typo":true,
			  "checks":[{"id":"a","kind":"point","series":"s","pass":{"rel":0.1}}]}`,
			"typo",
		},
		"unknown kind": {
			"fig1.json",
			`{"artifact":"fig1","config":{"seeds":1,"duration":"1s"},
			  "checks":[{"id":"a","kind":"blob","series":"s","pass":{"rel":0.1}}]}`,
			"unknown kind",
		},
		"unknown artifact": {
			"fig99.json",
			`{"artifact":"fig99","config":{"seeds":1,"duration":"1s"},
			  "checks":[{"id":"a","kind":"point","series":"s","pass":{"rel":0.1}}]}`,
			"unknown artifact",
		},
		"missing pass band": {
			"fig1.json",
			`{"artifact":"fig1","config":{"seeds":1,"duration":"1s"},
			  "checks":[{"id":"a","kind":"point","series":"s"}]}`,
			"no pass band",
		},
		"duplicate check id": {
			"fig1.json",
			`{"artifact":"fig1","config":{"seeds":1,"duration":"1s"},"checks":[
			  {"id":"a","kind":"point","series":"s","pass":{"rel":0.1}},
			  {"id":"a","kind":"point","series":"t","pass":{"rel":0.1}}]}`,
			"duplicate check id",
		},
		"file name mismatch": {
			"other.json",
			`{"artifact":"fig1","config":{"seeds":1,"duration":"1s"},
			  "checks":[{"id":"a","kind":"point","series":"s","pass":{"rel":0.1}}]}`,
			"rename",
		},
	}
	for name, tc := range cases {
		dir := writeRefdata(t, tc.file, tc.body)
		_, err := LoadDir(dir)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", name, err, tc.wantErr)
		}
	}
}

// TestLoadDirRejectsTrailingData: a real golden file with junk after its
// JSON value loads untampered and is refused once tampered.
func TestLoadDirRejectsTrailingData(t *testing.T) {
	raw, err := embeddedRefdata.ReadFile("refdata/fig1.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(writeRefdata(t, "fig1.json", string(raw)+"\n")); err != nil {
		t.Fatalf("untampered copy: %v", err)
	}
	for _, junk := range []string{"{}", "]", `"x"`, "{\"artifact\":\"fig1\"}"} {
		_, err := LoadDir(writeRefdata(t, "fig1.json", string(raw)+junk))
		if err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("trailing %q: err = %v, want trailing data", junk, err)
		}
	}
}

// FuzzLoadRefSet feeds one refdata file to the loader: no input may
// panic it, and every set it accepts must pass validation again. The
// seed corpus is the embedded golden set.
func FuzzLoadRefSet(f *testing.F) {
	entries, err := embeddedRefdata.ReadDir("refdata")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		raw, err := embeddedRefdata.ReadFile(path.Join("refdata", e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(strings.TrimSuffix(e.Name(), ".json"), raw)
	}
	f.Fuzz(func(t *testing.T, artifact string, raw []byte) {
		name := artifact + ".json"
		if !fs.ValidPath(name) || strings.Contains(name, "/") {
			t.Skip()
		}
		sets, err := loadFS(fstest.MapFS{name: {Data: raw}}, ".")
		if err != nil {
			return
		}
		if len(sets) != 1 {
			t.Fatalf("one file loaded as %d sets", len(sets))
		}
		if err := sets[0].validate(); err != nil {
			t.Fatalf("accepted set fails validation: %v", err)
		}
	})
}

func TestSharedConfigMismatch(t *testing.T) {
	a := &RefSet{Artifact: "fig1", Config: Config{Seeds: 3, Duration: "1s"}}
	b := &RefSet{Artifact: "fig2", Config: Config{Seeds: 5, Duration: "1s"}}
	if _, err := SharedConfig([]*RefSet{a, b}); err == nil {
		t.Fatal("SharedConfig accepted disagreeing profiles")
	}
	if _, err := SharedConfig([]*RefSet{a, a}); err != nil {
		t.Fatalf("SharedConfig rejected agreeing profiles: %v", err)
	}
}
