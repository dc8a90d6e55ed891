package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"testing"
)

// TestOutputGolden pins main's stdout by SHA-256: the example's numbers
// are deterministic for its fixed seeds.
func TestOutputGolden(t *testing.T) {
	const want = "bd6a347aaaca327d3061de1c6857c69eee32cab6e3100ff9821654a95e69c15a"
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	main()
	os.Stdout = saved
	w.Close()
	out := <-done
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("stdout sha256 = %s, want %s\n%s", got, want, out)
	}
}
