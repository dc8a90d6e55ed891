package transport

import (
	"fmt"
	"math/rand"

	"greedy80211/internal/sim"
)

// CBRSource generates constant-bit-rate UDP traffic: one PayloadBytes
// packet every interval. The paper's UDP experiments run all CBR flows at
// the same rate, high enough to saturate the medium, so goodput differences
// are purely MAC-layer effects.
//
// Each tick schedules the next with AtCall, as wireline's transfers do.
// A tick is never re-keyed, so the source needs no sim.Timer: the
// scheduler's keyed-timer heap holds only what is stopped or re-armed,
// and the ticks, which sit tens of milliseconds out, stay out of every
// timer sift. A tick takes one seq exactly as a timer arm does, so
// dispatch keeps its (time, seq) order.
type CBRSource struct {
	sched  *sim.Scheduler
	out    Output
	flow   int
	bytes  int
	every  sim.Time
	jitter float64
	rng    *rand.Rand
	chain  *cbrChain // the live chain of ticks; nil while stopped

	pool *PacketPool

	seq     int
	offered int64
	dropped int64
}

// UsePool makes the source draw packets from p instead of the heap. Call
// before Start; a nil pool keeps heap allocation.
func (s *CBRSource) UsePool(p *PacketPool) { s.pool = p }

// NewCBRSource builds a CBR source for flow sending payloadBytes packets
// every interval through out. Each inter-packet gap carries ±1% uniform
// jitter: competing CBR flows with identical periods would otherwise
// phase-lock against shared queues and bias admission systematically (a
// classic discrete-event artifact).
func NewCBRSource(sched *sim.Scheduler, out Output, flow, payloadBytes int, interval sim.Time) *CBRSource {
	if interval <= 0 {
		panic(fmt.Sprintf("transport: CBR interval %v must be positive", interval))
	}
	if payloadBytes <= 0 {
		panic(fmt.Sprintf("transport: CBR payload %d must be positive", payloadBytes))
	}
	return &CBRSource{
		sched:  sched,
		out:    out,
		flow:   flow,
		bytes:  payloadBytes,
		every:  interval,
		jitter: 0.01,
		rng:    sched.RNG(),
	}
}

// cbrChain is one chain of ticks, begun by Start. Stop and every later
// Start retire the live chain: its queued tick still fires, finds that it
// is no longer its source's chain, and schedules nothing. A stop flag
// alone would not do, since Stop then Start before the queued tick fires
// would leave two chains running.
type cbrChain struct{ src *CBRSource }

// CBRIntervalForRate returns the packet interval that yields rateBps of
// application payload with the given packet size.
func CBRIntervalForRate(rateBps float64, payloadBytes int) sim.Time {
	if rateBps <= 0 || payloadBytes <= 0 {
		panic("transport: CBRIntervalForRate requires positive rate and size")
	}
	return sim.FromSeconds(float64(payloadBytes*8) / rateBps)
}

// Start begins generation immediately, replacing any running chain of
// ticks.
func (s *CBRSource) Start() {
	s.chain = &cbrChain{src: s}
	s.sched.AtCall(s.sched.Now(), cbrTick, s.chain)
}

// Stop halts generation.
func (s *CBRSource) Stop() { s.chain = nil }

// Offered reports how many packets the source generated.
func (s *CBRSource) Offered() int64 { return s.offered }

// LocalDrops reports packets rejected by the output (full MAC queue).
func (s *CBRSource) LocalDrops() int64 { return s.dropped }

// cbrTick generates one packet and schedules the chain's next tick.
func cbrTick(x any) {
	c := x.(*cbrChain)
	s := c.src
	if s.chain != c {
		return
	}
	p := s.pool.Get()
	p.Flow = s.flow
	p.Seq = s.seq
	p.PayloadBytes = s.bytes
	p.WireBytes = s.bytes + UDPIPHeaderBytes
	s.seq++
	s.offered++
	if !s.out.Output(p) {
		s.dropped++
		p.Release() // never left this node
	}
	next := s.every
	if s.jitter > 0 {
		next += sim.Time(float64(s.every) * s.jitter * (2*s.rng.Float64() - 1))
	}
	s.sched.AtCall(s.sched.Now()+next, cbrTick, c)
}

// UDPSink counts unique packets received on a flow. It implements Agent.
type UDPSink struct {
	seen  seqSet
	stats FlowStats
}

var _ Agent = (*UDPSink)(nil)

// NewUDPSink builds an empty sink.
func NewUDPSink() *UDPSink {
	return &UDPSink{}
}

// Receive implements Agent.
func (s *UDPSink) Receive(p *Packet) {
	if p.IsACK {
		return
	}
	if s.seen.testAndSet(p.Seq) {
		s.stats.DuplicatePackets++
		return
	}
	s.stats.UniquePackets++
	s.stats.UniqueBytes += int64(p.PayloadBytes)
}

// Stats reports the accumulated reception statistics.
func (s *UDPSink) Stats() FlowStats { return s.stats }
