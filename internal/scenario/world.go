// Package scenario assembles complete simulated hotspot worlds: a shared
// medium, stations (with optional greedy policies and GRC observers),
// access points, wired backhaul links, and UDP/TCP flows. Every experiment
// in the paper's evaluation is a scenario built through this package.
package scenario

import (
	"fmt"

	"greedy80211/internal/detect"
	"greedy80211/internal/mac"
	"greedy80211/internal/medium"
	"greedy80211/internal/metrics"
	"greedy80211/internal/node"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
	"greedy80211/internal/trace"
	"greedy80211/internal/transport"
	"greedy80211/internal/wireline"
)

// Transport selects a flow's transport protocol.
type Transport int

const (
	// UDP carries constant-bit-rate traffic.
	UDP Transport = iota + 1
	// TCP carries a saturating Reno connection.
	TCP
)

// String implements fmt.Stringer.
func (t Transport) String() string {
	switch t {
	case UDP:
		return "udp"
	case TCP:
		return "tcp"
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// Capture selects how the medium resolves two overlapping receptions.
type Capture int

const (
	// CaptureThreshold decodes the stronger frame when it is at least
	// 10 dB above the other (ns-2's default; the zero value).
	CaptureThreshold Capture = iota
	// CaptureStrongest resolves every overlap to the strongest frame
	// (the paper's assumption in the ACK-spoofing evaluation).
	CaptureStrongest
	// CaptureOff turns the capture effect off: every overlap is lost.
	CaptureOff
)

// Config parameterizes a world.
type Config struct {
	// Seed drives every random stream in the world.
	Seed int64
	// Band selects 802.11b (default) or 802.11a.
	Band phys.Band
	// UseRTSCTS enables the RTS/CTS exchange (the paper's simulations
	// enable it unless studying hidden-terminal fake ACKs).
	UseRTSCTS bool
	// Propagation overrides the default all-in-range propagation.
	Propagation *phys.Propagation
	// Error is the channel error model applied to every link: one typed
	// spec (BER, FER, data-FER, or rate ladder) with explicit validation.
	// The zero value is loss-free.
	Error phys.ErrorSpec
	// Capture selects how overlapping receptions resolve; the zero
	// value is the 10 dB threshold.
	Capture Capture
	// QueueCap bounds every MAC queue; zero keeps the default of 50.
	QueueCap int
	// ControlRateBps overrides the band's basic rate for control frames
	// (RTS/CTS/ACK); zero keeps the default (1 Mbps on 802.11b). The
	// control-rate ablation uses it.
	ControlRateBps int64
	// FlowStagger separates successive flow start times in Run; zero
	// keeps the historical 1 ms. At paper scale (a handful of flows)
	// 1 ms just decides who grabs the channel first, but a 1000-flow
	// multi-BSS world would spend its whole first simulated second
	// starting flows, so BuildCells defaults to a much tighter stagger.
	FlowStagger sim.Time
}

// Station is one host in the world: a wireless station, an AP, or a
// wired-only remote host (DCF nil).
type Station struct {
	Name string
	ID   mac.NodeID
	Node *node.Node
	DCF  *mac.DCF
	GRC  *detect.GRC
}

// Flow is one end-to-end traffic stream.
type Flow struct {
	ID        int
	Kind      Transport
	From, To  string
	CBR       *transport.CBRSource
	UDPSink   *transport.UDPSink
	TCPSend   *transport.TCPSender
	TCPRecv   *transport.TCPReceiver
	startedAt sim.Time
}

// Stats reports the flow's receiver-side goodput statistics.
func (f *Flow) Stats() transport.FlowStats {
	switch f.Kind {
	case UDP:
		return f.UDPSink.Stats()
	case TCP:
		return f.TCPRecv.Stats()
	default:
		return transport.FlowStats{}
	}
}

// GoodputMbps reports application goodput in Mbit/s over duration d.
func (f *Flow) GoodputMbps(d sim.Time) float64 {
	return f.Stats().GoodputBps(d) / 1e6
}

// World is a fully wired simulation instance.
type World struct {
	Sched  *sim.Scheduler
	Medium *medium.Medium
	Params phys.Params

	cfg      Config
	stations map[string]*Station
	flows    map[int]*Flow
	order    []*Flow
	probes   []*ProbeFlow
	wired    map[string]wiredAttachment // host name -> its link toward an AP
	nextID   mac.NodeID
	metrics  *metrics.Registry
	frames   *mac.FramePool
	packets  *transport.PacketPool
}

type wiredAttachment struct {
	hostEnd *wireline.Endpoint // at the remote host
	apEnd   *wireline.Endpoint // at the access point
	apName  string
}

// NewWorld builds an empty world.
func NewWorld(cfg Config) (*World, error) {
	if cfg.Band == 0 {
		cfg.Band = phys.Band80211B
	}
	var params phys.Params
	switch cfg.Band {
	case phys.Band80211B:
		params = phys.Params80211B()
	case phys.Band80211A:
		params = phys.Params80211A()
	default:
		return nil, fmt.Errorf("scenario: unknown band %v", cfg.Band)
	}
	if cfg.ControlRateBps > 0 {
		params.BasicRateBps = cfg.ControlRateBps
	}
	sched := sim.NewScheduler(cfg.Seed)
	mcfg := medium.DefaultConfig()
	if cfg.Propagation != nil {
		mcfg.Propagation = *cfg.Propagation
	}
	em, rem, err := cfg.Error.Models()
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	mcfg.DefaultError = em
	mcfg.RateError = rem
	switch cfg.Capture {
	case CaptureThreshold: // medium.DefaultConfig's 10 dB threshold
	case CaptureStrongest:
		mcfg.ForceCapture = true
	case CaptureOff:
		mcfg.CaptureEnabled = false
	default:
		return nil, fmt.Errorf("scenario: unknown capture mode %d", int(cfg.Capture))
	}
	reg := metrics.NewRegistry()
	mcfg.Metrics = reg
	switch cfg.Band {
	case phys.Band80211A:
		mcfg.Addr = medium.AddrModel80211A()
	default:
		mcfg.Addr = medium.AddrModel80211B()
	}
	med, err := medium.New(sched, mcfg)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	w := &World{
		Sched:    sched,
		Medium:   med,
		Params:   params,
		cfg:      cfg,
		stations: make(map[string]*Station),
		flows:    make(map[int]*Flow),
		wired:    make(map[string]wiredAttachment),
		metrics:  reg,
		frames:   mac.NewFramePool(),
		packets:  transport.NewPacketPool(),
	}
	return w, nil
}

// Metrics returns the world's always-on telemetry registry.
func (w *World) Metrics() *metrics.Registry { return w.metrics }

// MetricsSnapshot folds the registry and every station's MAC accounting
// into an immutable snapshot covering the simulated time elapsed so far
// (call it after Run).
func (w *World) MetricsSnapshot() *metrics.Snapshot {
	return w.metrics.Snapshot(w.Sched.Now())
}

// Station looks up a station by name.
func (w *World) Station(name string) (*Station, bool) {
	s, ok := w.stations[name]
	return s, ok
}

// Flow looks up a flow by id.
func (w *World) Flow(id int) (*Flow, bool) {
	f, ok := w.flows[id]
	return f, ok
}

// Flows returns every flow in creation order.
func (w *World) Flows() []*Flow { return w.order }

func (w *World) resolve(names []string) (map[mac.NodeID]bool, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make(map[mac.NodeID]bool, len(names))
	for _, n := range names {
		s, ok := w.stations[n]
		if !ok {
			return nil, fmt.Errorf("scenario: unknown station %q (add it first)", n)
		}
		out[s.ID] = true
	}
	return out, nil
}

// AddStation creates the wireless station spec describes, placed at
// pos unless spec.Position overrides it.
func (w *World) AddStation(name string, pos phys.Position, spec StationSpec) (*Station, error) {
	if _, dup := w.stations[name]; dup {
		return nil, fmt.Errorf("scenario: duplicate station %q", name)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spoofTo, err := w.resolve(spec.SpoofEmulationVictims)
	if err != nil {
		return nil, err
	}
	cwCap, err := w.resolve(spec.CWMinCapPeers)
	if err != nil {
		return nil, err
	}
	// The policy draws its random stream before mac.New draws the DCF's,
	// which fixes every world's stream order.
	policy, err := spec.Policy.build(w)
	if err != nil {
		return nil, err
	}
	var autoRate mac.RateController
	if spec.ARF {
		rates := mac.Rates80211B()
		if w.cfg.Band == phys.Band80211A {
			rates = mac.Rates80211A()
		}
		autoRate = mac.NewARF(rates, 0, 0)
	}
	if spec.Position != nil {
		pos = *spec.Position
	}
	w.nextID++
	id := w.nextID
	n := node.New(name)
	st := &Station{Name: name, ID: id, Node: n}
	queueCap := spec.QueueCap
	if queueCap == 0 {
		queueCap = w.cfg.QueueCap
	}
	var obs mac.Observer
	if spec.GRC != nil {
		st.GRC = detect.New(w.Sched, w.Params, *spec.GRC)
		obs = st.GRC
	}
	dcf := mac.New(w.Sched, w.Medium, n, mac.Config{
		ID:               id,
		Params:           w.Params,
		UseRTSCTS:        w.cfg.UseRTSCTS,
		QueueCap:         queueCap,
		Policy:           policy,
		Observer:         obs,
		SpoofEmulationTo: spoofTo,
		CWMinCapTo:       cwCap,
		AutoRate:         autoRate,
		Frames:           w.frames,
	})
	st.DCF = dcf
	n.AttachMAC(dcf)
	if err := w.Medium.AddRadioOn(id, pos, spec.Channel, dcf); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	w.metrics.Register(id, name, dcf)
	w.stations[name] = st
	return st, nil
}

// AddWiredHost creates a remote host with no radio; connect it to an AP
// with ConnectWired before adding flows through it.
func (w *World) AddWiredHost(name string) (*Station, error) {
	if _, dup := w.stations[name]; dup {
		return nil, fmt.Errorf("scenario: duplicate station %q", name)
	}
	st := &Station{Name: name, Node: node.New(name)}
	w.stations[name] = st
	return st, nil
}

// ConnectWired links a wired host to an access point.
func (w *World) ConnectWired(host, ap string, cfg wireline.Config) error {
	h, ok := w.stations[host]
	if !ok || h.DCF != nil {
		return fmt.Errorf("scenario: %q is not a wired host", host)
	}
	a, ok := w.stations[ap]
	if !ok || a.DCF == nil {
		return fmt.Errorf("scenario: %q is not a wireless AP", ap)
	}
	if _, dup := w.wired[host]; dup {
		return fmt.Errorf("scenario: host %q already connected", host)
	}
	link := wireline.NewLink(w.Sched, cfg)
	link.A().Attach(h.Node.Inject)
	link.B().Attach(a.Node.Inject)
	w.wired[host] = wiredAttachment{hostEnd: link.A(), apEnd: link.B(), apName: ap}
	return nil
}

// splitRoute sends data packets one way and (TCP) ACK packets the other —
// the AP's bridging rule for a flow spanning wireless and wireline.
type splitRoute struct {
	data, ack node.Route
}

// Forward implements node.Route.
func (r splitRoute) Forward(p *transport.Packet) bool {
	if p.IsACK {
		return r.ack.Forward(p)
	}
	return r.data.Forward(p)
}

// routeFlow installs forwarding for a downlink flow from -> to.
// Supported shapes: wireless sender -> wireless receiver, and wired host
// -> (AP bridge) -> wireless receiver.
func (w *World) routeFlow(id int, from, to *Station) error {
	switch {
	case from.DCF != nil && to.DCF != nil:
		from.Node.SetRoute(id, from.Node.WirelessTo(to.ID))
		to.Node.SetRoute(id, to.Node.WirelessTo(from.ID))
		return nil
	case from.DCF == nil && to.DCF != nil:
		att, ok := w.wired[from.Name]
		if !ok {
			return fmt.Errorf("scenario: wired host %q not connected to an AP", from.Name)
		}
		ap := w.stations[att.apName]
		from.Node.SetRoute(id, att.hostEnd)
		ap.Node.SetRoute(id, splitRoute{
			data: ap.Node.WirelessTo(to.ID),
			ack:  node.RouteFunc(att.apEnd.Forward),
		})
		to.Node.SetRoute(id, to.Node.WirelessTo(ap.ID))
		return nil
	default:
		return fmt.Errorf("scenario: unsupported flow shape %q -> %q", from.Name, to.Name)
	}
}

func (w *World) newFlow(id int, kind Transport, from, to string) (*Flow, *Station, *Station, error) {
	if _, dup := w.flows[id]; dup {
		return nil, nil, nil, fmt.Errorf("scenario: duplicate flow %d", id)
	}
	f, ok := w.stations[from]
	if !ok {
		return nil, nil, nil, fmt.Errorf("scenario: unknown station %q", from)
	}
	t, ok := w.stations[to]
	if !ok {
		return nil, nil, nil, fmt.Errorf("scenario: unknown station %q", to)
	}
	fl := &Flow{ID: id, Kind: kind, From: from, To: to}
	if err := w.routeFlow(id, f, t); err != nil {
		return nil, nil, nil, err
	}
	w.flows[id] = fl
	w.order = append(w.order, fl)
	return fl, f, t, nil
}

// AddUDPFlow creates a CBR/UDP flow of payloadBytes packets at rateBps
// application bits per second from one station to another.
func (w *World) AddUDPFlow(id int, from, to string, rateBps float64, payloadBytes int) (*Flow, error) {
	fl, f, t, err := w.newFlow(id, UDP, from, to)
	if err != nil {
		return nil, err
	}
	fl.CBR = transport.NewCBRSource(w.Sched, f.Node.OutputFor(id), id, payloadBytes,
		transport.CBRIntervalForRate(rateBps, payloadBytes))
	fl.CBR.UsePool(w.packets)
	fl.UDPSink = transport.NewUDPSink()
	t.Node.AddAgent(id, fl.UDPSink)
	return fl, nil
}

// AddTCPFlow creates a saturating TCP Reno flow.
func (w *World) AddTCPFlow(id int, from, to string, cfg transport.TCPConfig) (*Flow, error) {
	cfg.Flow = id
	fl, f, t, err := w.newFlow(id, TCP, from, to)
	if err != nil {
		return nil, err
	}
	fl.TCPSend = transport.NewTCPSender(w.Sched, f.Node.OutputFor(id), cfg)
	fl.TCPSend.UsePool(w.packets)
	if cfg.AckDelay > 0 {
		fl.TCPRecv = transport.NewTCPReceiverDelayed(w.Sched, id, t.Node.OutputFor(id), cfg.AckDelay)
	} else {
		fl.TCPRecv = transport.NewTCPReceiver(id, t.Node.OutputFor(id))
	}
	fl.TCPRecv.UsePool(w.packets)
	f.Node.AddAgent(id, fl.TCPSend)
	t.Node.AddAgent(id, fl.TCPRecv)
	return fl, nil
}

// ProbeFlow is an active-probing flow pair (Section VII-C): a Prober at
// the sender side and a Responder at the receiver side, used to measure
// application-layer loss for the fake-ACK detector.
type ProbeFlow struct {
	ID        int
	Prober    *detect.Prober
	Responder *detect.Responder
}

// AddProbeFlow installs a ping-style probe flow from one station to
// another; the prober starts with the world's other flows.
func (w *World) AddProbeFlow(id int, from, to string, interval sim.Time) (*ProbeFlow, error) {
	if _, dup := w.flows[id]; dup {
		return nil, fmt.Errorf("scenario: duplicate flow %d", id)
	}
	f, ok := w.stations[from]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown station %q", from)
	}
	t, ok := w.stations[to]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown station %q", to)
	}
	if err := w.routeFlow(id, f, t); err != nil {
		return nil, err
	}
	pf := &ProbeFlow{
		ID:     id,
		Prober: detect.NewProber(w.Sched, f.Node.OutputFor(id), id, interval),
	}
	pf.Responder = detect.NewResponder(id, t.Node.OutputFor(id))
	f.Node.AddAgent(id, pf.Prober)
	t.Node.AddAgent(id, pf.Responder)
	w.probes = append(w.probes, pf)
	return pf, nil
}

// AttachTrace wires a flight recorder into a fully built world: it hears
// every channel event and every station's MAC-internal events, and learns
// the band timing and the station names for rendering and invariant
// checking. Call it after the last AddStation and before Run.
func (w *World) AttachTrace(rec *trace.Recorder) {
	w.Medium.AddTap(rec)
	rec.SetParams(w.Params)
	for _, st := range w.stations {
		if st.DCF != nil {
			rec.SetStationName(st.ID, st.Name)
			st.DCF.SetProbe(rec)
		}
	}
}

// Run starts every flow (staggered by Config.FlowStagger — 1 ms by
// default — in creation order, so "who grabs the channel first" is
// deterministic) and executes the world for d of simulated time.
func (w *World) Run(d sim.Time) {
	stagger := w.cfg.FlowStagger
	if stagger == 0 {
		stagger = sim.Millisecond
	}
	for i, fl := range w.order {
		fl := fl
		start := sim.Time(i) * stagger
		fl.startedAt = start
		switch fl.Kind {
		case UDP:
			w.Sched.At(start, fl.CBR.Start)
		case TCP:
			w.Sched.At(start, fl.TCPSend.Start)
		}
	}
	for _, pf := range w.probes {
		pf := pf
		w.Sched.Schedule(0, pf.Prober.Start)
	}
	w.Sched.RunUntil(d)
}
