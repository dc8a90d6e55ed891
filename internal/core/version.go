// Package core holds the module's identity: ModuleFingerprint names the
// code that produced a result, for durable cache keys. Worlds are built
// from station specs in package scenario and run over seeds by
// experiments.RunSeeds.
package core

import "runtime/debug"

// ModuleFingerprint identifies the code that produced a result, for use
// in durable cache keys: "<module path>@<vcs revision or module
// version>". A cached unit is only reusable if it was computed by the
// same code, so the fingerprint folds into the campaign store's
// content-addressed keys; binaries built without VCS stamping (go test,
// plain go run in a dirty tree) report "devel", which still separates
// them from stamped release builds.
func ModuleFingerprint() string {
	const fallback = "greedy80211@devel"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return fallback
	}
	mod := bi.Main.Path
	if mod == "" {
		mod = "greedy80211"
	}
	ver := bi.Main.Version
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			ver = s.Value
			break
		}
	}
	if ver == "" || ver == "(devel)" {
		ver = "devel"
	}
	return mod + "@" + ver
}
