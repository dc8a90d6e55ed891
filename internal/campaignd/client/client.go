// Package client is the worker-side half of the campaignd lease
// protocol: a small retrying HTTP client plus the Work loop that pulls
// leases, heartbeats while computing, and uploads results. cmd/campaign
// worker and submit are thin wrappers over this package.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"greedy80211/internal/campaign"
	"greedy80211/internal/campaignd"
	"greedy80211/internal/obs"
)

// Client talks to one campaignd server.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport; nil means http.DefaultClient.
	HTTPClient *http.Client
	// Retries is how many times a transiently-failed request is retried
	// (connection errors and 5xx responses). Zero means 4.
	Retries int
	// RetryBase is the first backoff delay; it doubles per attempt.
	// Zero means 100ms.
	RetryBase time.Duration
	// Logger receives structured progress logs; nil discards them.
	// Correlation ids (request, lease) travel in the context and attach
	// to every record automatically.
	Logger *slog.Logger
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) log() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return obs.Discard()
}

// apiError is a non-2xx response the server answered deliberately (the
// request reached the server and was rejected) — not retryable.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("server: %s (HTTP %d)", e.Msg, e.Status)
}

// IsNotFound reports whether err is a server-side 404 (expired lease,
// unknown campaign or key).
func IsNotFound(err error) bool {
	var ae *apiError
	if ok := asAPIError(err, &ae); ok {
		return ae.Status == http.StatusNotFound
	}
	return false
}

func asAPIError(err error, target **apiError) bool {
	for err != nil {
		if ae, ok := err.(*apiError); ok {
			*target = ae
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// do sends one JSON request and decodes the JSON answer into out,
// retrying connection failures and 5xx responses with doubling backoff.
// 4xx responses are the server speaking; they surface immediately as
// *apiError. Every request carries an X-Request-ID — the one already in
// ctx if the caller set it (obs.WithRequestID), otherwise a fresh id
// shared by all retry attempts — and the server echoes it into its
// access log, so a worker-side failure is one grep away from the
// server-side view of the same request.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	retries := c.Retries
	if retries <= 0 {
		retries = 4
	}
	backoff := c.RetryBase
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	reqID := obs.RequestID(ctx)
	if reqID == "" {
		reqID = obs.NewID()
		ctx = obs.WithRequestID(ctx, reqID)
	}
	url := strings.TrimRight(c.BaseURL, "/") + path
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("%w (last error: %v)", err, lastErr)
			}
			return err
		}
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("X-Request-ID", reqID)
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.httpClient().Do(req)
		if err == nil {
			data, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
			resp.Body.Close()
			switch {
			case rerr != nil:
				err = rerr
			case resp.StatusCode >= 500:
				err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, firstLine(data))
			case resp.StatusCode >= 400:
				var ed campaignd.ErrorDoc
				if json.Unmarshal(data, &ed) == nil && ed.Error != "" {
					return &apiError{Status: resp.StatusCode, Msg: ed.Error}
				}
				return &apiError{Status: resp.StatusCode, Msg: firstLine(data)}
			default:
				if out == nil {
					return nil
				}
				return json.Unmarshal(data, out)
			}
		}
		lastErr = err
		if attempt >= retries {
			return fmt.Errorf("%s %s: %w (after %d attempts)", method, path, err, attempt+1)
		}
		c.log().InfoContext(ctx, "retrying request",
			"method", method, "path", path, "error", err, "backoff", backoff)
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w (last error: %v)", ctx.Err(), lastErr)
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// Submit registers a campaign spec and returns the server's view of it.
func (c *Client) Submit(ctx context.Context, spec *campaign.Spec) (*campaignd.CampaignDoc, error) {
	var doc campaignd.CampaignDoc
	if err := c.do(ctx, http.MethodPost, "/v1/campaigns", spec, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Campaign fetches one campaign's status document.
func (c *Client) Campaign(ctx context.Context, id string) (*campaignd.CampaignDoc, error) {
	var doc campaignd.CampaignDoc
	if err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id, nil, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Lease asks for a unit to compute.
func (c *Client) Lease(ctx context.Context, campaignID, worker string) (*campaignd.LeaseResponse, error) {
	var resp campaignd.LeaseResponse
	req := campaignd.LeaseRequest{Worker: worker}
	if err := c.do(ctx, http.MethodPost, "/v1/campaigns/"+campaignID+"/lease", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Heartbeat extends a lease.
func (c *Client) Heartbeat(ctx context.Context, leaseID string) error {
	return c.do(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/heartbeat", nil, nil)
}

// Complete uploads a computed unit.
func (c *Client) Complete(ctx context.Context, leaseID, key string, result, metrics []byte) (*campaignd.CompleteResponse, error) {
	var resp campaignd.CompleteResponse
	req := campaignd.CompleteRequest{Key: key, Result: string(result), Metrics: string(metrics)}
	if err := c.do(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/complete", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Fail reports that the worker could not compute its leased unit.
func (c *Client) Fail(ctx context.Context, leaseID string, reason error) error {
	req := campaignd.FailRequest{Error: fmt.Sprint(reason)}
	return c.do(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/fail", req, nil)
}

// Progress fetches the server's live completion view (per-campaign
// done/ETA rollups plus the worker fleet table). `campaign status
// -follow` polls this.
func (c *Client) Progress(ctx context.Context) (*campaignd.ProgressDoc, error) {
	var doc campaignd.ProgressDoc
	if err := c.do(ctx, http.MethodGet, "/v1/progress", nil, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// WorkStats summarizes one Work loop.
type WorkStats struct {
	Computed int // units computed and committed by this worker
	Failed   int // units this worker failed on
	Waited   int // retry-after rounds spent waiting on other workers
}

// DefaultWorkerName names this process for lease attribution.
func DefaultWorkerName() string {
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}

// Work pulls leases from the campaign until the server says it is done
// or ctx is cancelled. Each leased unit is key-verified against the
// local binary (refusing on module-fingerprint skew), computed with a
// background heartbeat at TTL/3, and uploaded. Compute errors are
// reported via Fail and the loop moves on — the server retires units
// that fail repeatedly. A cancelled ctx abandons the in-flight unit
// silently: its lease expires on the server and the unit is re-issued,
// which is exactly the dead-worker path.
func (c *Client) Work(ctx context.Context, campaignID, worker string) (WorkStats, error) {
	if worker == "" {
		worker = DefaultWorkerName()
	}
	var stats WorkStats
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		resp, err := c.Lease(ctx, campaignID, worker)
		if err != nil {
			return stats, err
		}
		switch {
		case resp.Done:
			if resp.FailedUnits > 0 {
				return stats, fmt.Errorf("campaign exhausted with %d unit(s) failed beyond retry", resp.FailedUnits)
			}
			return stats, nil
		case resp.Lease == nil:
			stats.Waited++
			wait := time.Duration(resp.RetryAfterMs) * time.Millisecond
			if wait <= 0 {
				wait = 500 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return stats, ctx.Err()
			case <-time.After(wait):
			}
			continue
		}
		if err := c.computeLease(ctx, resp.Lease, &stats); err != nil {
			return stats, err
		}
	}
}

// computeLease runs one leased unit end to end. The lease id rides the
// context from here on, so every log line — client and server — of this
// unit's compute carries it.
func (c *Client) computeLease(ctx context.Context, grant *campaignd.LeaseGrant, stats *WorkStats) error {
	ctx = obs.WithLeaseID(ctx, grant.LeaseID)
	wu := grant.Unit
	if err := wu.VerifyKey(); err != nil {
		// Version skew: this binary would compute different bytes than
		// the key promises. Refuse loudly — retrying cannot help.
		c.Fail(context.WithoutCancel(ctx), grant.LeaseID, err)
		return err
	}
	unit, err := wu.Unit()
	if err != nil {
		c.Fail(context.WithoutCancel(ctx), grant.LeaseID, err)
		return err
	}

	// Heartbeat at a third of the TTL while the simulation runs.
	ttl := time.Duration(grant.TTLMs) * time.Millisecond
	interval := ttl / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	hbLost := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if err := c.Heartbeat(hbCtx, grant.LeaseID); err != nil && IsNotFound(err) {
					close(hbLost)
					return
				}
			}
		}
	}()

	c.log().InfoContext(ctx, "computing unit", "unit", wu.Name, "key", wu.Key[:12])
	result, metrics, err := campaign.ComputeUnit(unit)
	stopHB()
	if err != nil {
		stats.Failed++
		c.log().WarnContext(ctx, "unit failed", "unit", wu.Name, "error", err)
		if ferr := c.Fail(context.WithoutCancel(ctx), grant.LeaseID, err); ferr != nil && !IsNotFound(ferr) {
			return ferr
		}
		return nil
	}
	select {
	case <-hbLost:
		// The server already expired this lease; upload anyway — the
		// commit is idempotent and the server accepts late uploads.
		c.log().InfoContext(ctx, "lease expired mid-compute; uploading late", "unit", wu.Name)
	default:
	}
	cresp, err := c.Complete(ctx, grant.LeaseID, wu.Key, result, metrics)
	if err != nil {
		return fmt.Errorf("uploading %s: %w", wu.Name, err)
	}
	stats.Computed++
	if cresp.LeaseLost {
		c.log().InfoContext(ctx, "committed after lease loss (still counted)", "unit", wu.Name)
	} else {
		c.log().InfoContext(ctx, "committed unit", "unit", wu.Name)
	}
	return nil
}
