package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// streamDraws is how many draws the differential checks take per seed:
// each draw consumes at least one source output, so 1,300 draws go past
// two wraps of the 607-word register.
const streamDraws = 1300

// streamMismatch draws from NewRand(seed) and from math/rand's own source
// for the same seed, cycling through the Rand methods the simulator and
// its tests use, and describes the first draw where they differ ("" if
// none does).
func streamMismatch(seed int64, draws int) string {
	got, want := NewRand(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < draws; i++ {
		var g, w any
		switch i % 7 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 3:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		case 4:
			g, w = math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())
		case 5:
			n := 1 + i%1000
			g, w = got.Intn(n), want.Intn(n)
		case 6:
			g, w = fmt.Sprint(got.Perm(5)), fmt.Sprint(want.Perm(5))
		}
		if g != w {
			return fmt.Sprintf("draw %d: got %v, math/rand %v", i, g, w)
		}
	}
	return ""
}

// TestStreamMatchesMathRand is the differential oracle for the
// power-table seeding: every stream must equal math/rand's draw for
// draw, on the seeds where the Lehmer reduction has edge cases (zero
// and its stand-in, the modulus and its neighbours and multiples, the
// int64 extremes) and on 2,000 random ones.
func TestStreamMatchesMathRand(t *testing.T) {
	const m = int32max
	seeds := []int64{
		0, 1, -1, zeroSeedSub, -zeroSeedSub,
		m - 1, m, m + 1, -m + 1, -m, -m - 1,
		2 * m, 2*m - 1, 2*m + 1, -2 * m, 3 * m, 1000003 * m, m << 31, -(m << 31),
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	pick := rand.New(rand.NewSource(20061))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		if msg := streamMismatch(seed, streamDraws); msg != "" {
			t.Errorf("seed %d: %s", seed, msg)
		}
	}
}

// FuzzStreamSeed checks that the first streamDraws outputs of any seed's
// stream equal math/rand's.
func FuzzStreamSeed(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, zeroSeedSub, int32max, -int32max, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < streamDraws; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, output %d: got %#x, math/rand %#x", seed, i, g, w)
			}
		}
	})
}

// BenchmarkSchedulerRNG times one stream's creation: the 607-word
// register's allocation and its seeding.
func BenchmarkSchedulerRNG(b *testing.B) {
	s := NewScheduler(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.RNG()
	}
}
