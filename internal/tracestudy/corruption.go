// Package tracestudy reproduces the paper's measurement studies as
// synthetic experiments (the original studies ran on an office-floor
// MadWiFi/Click testbed we do not have — see DESIGN.md §2):
//
//   - Table I: how often corrupted frames preserve their MAC addresses,
//     the feasibility basis of misbehavior 3 (fake ACKs).
//   - Fig 21: the CDF of per-packet RSSI deviation from the link median
//     over a 16-node floor, the feasibility basis of GRC's spoofed-ACK
//     detector.
//   - Fig 22: the detector's false-positive/false-negative trade-off as
//     the RSSI threshold sweeps 0–5 dB.
package tracestudy

import (
	"fmt"

	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// CorruptionStudyConfig parameterizes a Table I reproduction.
type CorruptionStudyConfig struct {
	// Frames is how many frame receptions to simulate (the paper captured
	// 65536 on 802.11b and 23068 on 802.11a).
	Frames int
	// FrameBytes is the frame size on the air.
	FrameBytes int
	// Process generates the per-frame error pattern.
	Process phys.ByteErrorProcess
	// Seed drives the draw.
	Seed int64
}

// CorruptionStudyResult is one Table I row.
type CorruptionStudyResult struct {
	Received            int
	Corrupted           int
	CorruptedDstOK      int // corrupted frames with intact destination
	CorruptedSrcDstOK   int // corrupted frames with both addresses intact
	DstPreservedRate    float64
	SrcDstPreservedRate float64 // among frames with intact destination
}

// RunCorruptionStudy draws the configured number of frames and tallies
// address preservation among the corrupted ones.
func RunCorruptionStudy(cfg CorruptionStudyConfig) (CorruptionStudyResult, error) {
	if cfg.Frames <= 0 || cfg.FrameBytes <= 16 {
		return CorruptionStudyResult{}, fmt.Errorf(
			"tracestudy: need positive frames and >16-byte frames, got %d × %dB",
			cfg.Frames, cfg.FrameBytes)
	}
	if cfg.Process == nil {
		return CorruptionStudyResult{}, fmt.Errorf("tracestudy: nil error process")
	}
	rng := sim.NewRand(cfg.Seed)
	res := CorruptionStudyResult{Received: cfg.Frames}
	for i := 0; i < cfg.Frames; i++ {
		c := cfg.Process.CorruptFrame(rng, cfg.FrameBytes)
		if !c.Corrupted {
			continue
		}
		res.Corrupted++
		if !c.DstHit {
			res.CorruptedDstOK++
			if !c.SrcHit {
				res.CorruptedSrcDstOK++
			}
		}
	}
	if res.Corrupted > 0 {
		res.DstPreservedRate = float64(res.CorruptedDstOK) / float64(res.Corrupted)
	}
	if res.CorruptedDstOK > 0 {
		res.SrcDstPreservedRate = float64(res.CorruptedSrcDstOK) / float64(res.CorruptedDstOK)
	}
	return res, nil
}

// TableIConfig80211B returns a configuration calibrated to the paper's
// 802.11b capture: 65536 frames, ~2.1% corrupted, near-memoryless residual
// byte errors (high preservation: 98.8% / 94.9%).
func TableIConfig80211B(seed int64) CorruptionStudyConfig {
	return CorruptionStudyConfig{
		Frames:     65536,
		FrameBytes: 1092,
		// Mild burstiness: mostly isolated byte errors with occasional
		// short bursts, tuned to Table I's 802.11b row.
		Process: phys.GilbertElliott{
			PGoodToBad: 0.0000165,
			PBadToGood: 0.35,
			PErrGood:   0,
			PErrBad:    0.65,
			PStartBad:  -1,
		},
		Seed: seed,
	}
}

// TableIConfig80211A returns a configuration calibrated to the paper's
// 802.11a capture: 23068 frames, ~32% corrupted, strongly bursty OFDM
// symbol failures (lower preservation: 84% / 91.4%).
func TableIConfig80211A(seed int64) CorruptionStudyConfig {
	return CorruptionStudyConfig{
		Frames:     23068,
		FrameBytes: 1092,
		// OFDM frames fail as a whole: a marginal-SNR fade lasts longer
		// than one frame (coherence time ≫ frame airtime), scattering
		// symbol errors across the entire frame. 32% of frames start in a
		// fade; within one, each byte is corrupted with ≈2.6% probability,
		// which puts the 6-byte address fields at ≈15% risk — the paper's
		// 84%/91.4% preservation rates.
		Process: phys.GilbertElliott{
			PGoodToBad: 0,
			PBadToGood: 0,
			PErrGood:   0,
			PErrBad:    0.026,
			PStartBad:  0.32,
		},
		Seed: seed,
	}
}
