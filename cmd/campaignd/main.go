// Command campaignd serves a content-addressed campaign store over
// HTTP: cached results, metrics, gate verdicts, and trace renders as
// conditional JSON, plus the lease protocol that fans campaign units out
// to `campaign worker` processes.
//
// Usage:
//
//	campaignd -store .campaign -addr :8080
//	campaignd -store .campaign -addr 127.0.0.1:0 -addr-file /tmp/addr \
//	          -spec spec.json -lease-ttl 30s
//
// Observability: structured logs go to stderr (-log-format text|json,
// -log-level), Prometheus metrics are at GET /metrics, liveness at
// /healthz, readiness at /readyz, and live campaign progress at
// GET /v1/progress. -debug-addr opens a second listener with net/http/pprof
// profiles (plus /metrics and /healthz) that is never exposed on the
// main address.
//
// The server owns the store's write-ahead journal while running: lease
// grants journal "start", commits journal "commit", so `campaign status`
// against the same store shows in-flight units even while they are being
// computed on other machines. SIGINT/SIGTERM drains gracefully — /readyz
// flips to 503, the listener stays open for -drain-delay, then closes,
// in-flight requests finish (bounded by -drain), and the journal closes
// last.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"greedy80211/internal/campaign"
	"greedy80211/internal/campaignd"
	"greedy80211/internal/core"
	"greedy80211/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("campaignd", flag.ContinueOnError)
	var (
		storeDir   = fs.String("store", "", "result store directory (required; created if absent)")
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		addrFile   = fs.String("addr-file", "", "write the actual listen address to this file once bound (for scripts and tests)")
		specPath   = fs.String("spec", "", "campaign spec to register at startup (workers can lease it immediately)")
		leaseTTL   = fs.Duration("lease-ttl", 30*time.Second, "worker lease TTL; a lease not heartbeated within this window is re-issued")
		maxFail    = fs.Int("max-unit-failures", 3, "worker-reported failures before a unit is retired")
		drain      = fs.Duration("drain", 10*time.Second, "graceful-shutdown grace for in-flight requests")
		drainDelay = fs.Duration("drain-delay", 0, "keep the listener open this long after /readyz flips to 503 (load-balancer grace)")
		debugAddr  = fs.String("debug-addr", "", "optional second listener with net/http/pprof profiles (never exposed on -addr)")
		version    = fs.Bool("version", false, "print the module fingerprint and exit")
		logCfg     = obs.RegisterLogFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Printf("campaignd %s\n", core.ModuleFingerprint())
		return 0
	}
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "campaignd: -store required")
		return 2
	}
	logger, err := logCfg.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaignd: %v\n", err)
		return 2
	}
	store, err := campaign.OpenStore(*storeDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaignd: %v\n", err)
		return 1
	}
	srv, err := campaignd.New(campaignd.Config{
		Store:           store,
		LeaseTTL:        *leaseTTL,
		MaxUnitFailures: *maxFail,
		DrainTimeout:    *drain,
		DrainDelay:      *drainDelay,
		Logger:          logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaignd: %v\n", err)
		return 1
	}
	if *specPath != "" {
		spec, err := campaign.LoadSpec(*specPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaignd: %v\n", err)
			return 1
		}
		id, err := srv.Register(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaignd: registering %s: %v\n", *specPath, err)
			return 1
		}
		fmt.Printf("campaignd: campaign %s ready for workers\n", id)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaignd: %v\n", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "campaignd: writing -addr-file: %v\n", err)
			ln.Close()
			return 1
		}
	}
	fmt.Printf("campaignd: serving %s on http://%s\n", *storeDir, bound)

	// The debug listener is opt-in and independent of the main surface:
	// pprof profiles plus /metrics and /healthz, reachable even when the
	// main handler is saturated. It dies with the process — no drain.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaignd: -debug-addr: %v\n", err)
			ln.Close()
			return 1
		}
		logger.Info("debug listener up", "addr", dln.Addr().String())
		go func() {
			dsrv := &http.Server{Handler: srv.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
			if err := dsrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				logger.Warn("debug listener failed", "error", err)
			}
		}()
	}

	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "campaignd: received %v; draining (signal again to force-quit)\n", sig)
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "campaignd: second signal; exiting now")
		os.Exit(130)
	}()
	if err := srv.Serve(ctx, ln); err != nil {
		fmt.Fprintf(os.Stderr, "campaignd: %v\n", err)
		return 1
	}
	fmt.Println("campaignd: drained; store and journal are consistent")
	return 0
}
