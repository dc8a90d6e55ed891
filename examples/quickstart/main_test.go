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
	const want = "43782128baa32e8714379f2d5e05e5c571ec1737ecb3ea0bbdfb123e77eb0840"
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
