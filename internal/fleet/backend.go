package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// Each proxied attempt is bounded by attemptTimeout (loads solve graphs,
// which dwarfs query latency). Transport errors and 502/503/504 get
// retries extra attempts, the k-th one backoff·k after the one before.
const (
	attemptTimeout = 120 * time.Second
	retries        = 2
	backoff        = 50 * time.Millisecond
)

// Backend is the router's client for one apspd shard: a bounded
// admission slot pool, a retrying HTTP client, and the health state
// the prober maintains. All fields are atomics — the hot path
// (admission + load ordering) takes no locks.
type Backend struct {
	url         string
	client      *http.Client
	maxInFlight int64

	inFlight atomic.Int64
	healthy  atomic.Bool
	fails    atomic.Int64 // consecutive probe failures

	requests    atomic.Int64 // proxied requests attempted
	errors      atomic.Int64 // proxied requests that failed after retries
	rejections  atomic.Int64 // admissions refused (saturated)
	ejections   atomic.Int64 // healthy → unhealthy transitions
	readmits    atomic.Int64 // unhealthy → healthy transitions
	probeFails  atomic.Int64 // probe attempts that failed
	retriesUsed atomic.Int64 // extra attempts beyond the first
}

func newBackend(url string, maxInFlight int) *Backend {
	b := &Backend{
		url:         url,
		client:      &http.Client{Timeout: attemptTimeout},
		maxInFlight: int64(maxInFlight),
	}
	// Start healthy: the router must be able to route before the first
	// probe round completes; a dead backend is ejected within
	// ejectAfter probes (or immediately on a transport error).
	b.healthy.Store(true)
	return b
}

// URL returns the backend's base URL.
func (b *Backend) URL() string { return b.url }

// Healthy reports the prober's current verdict.
func (b *Backend) Healthy() bool { return b.healthy.Load() }

// InFlight returns the admitted-but-unfinished request count — the
// load signal the replica picker orders candidates by.
func (b *Backend) InFlight() int64 { return b.inFlight.Load() }

// tryAcquire claims an admission slot, refusing when maxInFlight are
// already admitted. This is the backpressure boundary: the router
// turns a refusal on every replica into 429 + Retry-After instead of
// queueing unbounded work in front of a saturated backend.
func (b *Backend) tryAcquire() bool {
	for {
		cur := b.inFlight.Load()
		if cur >= b.maxInFlight {
			b.rejections.Add(1)
			return false
		}
		if b.inFlight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func (b *Backend) release() { b.inFlight.Add(-1) }

// markUnhealthy records an ejection (idempotent per transition).
func (b *Backend) markUnhealthy() {
	if b.healthy.CompareAndSwap(true, false) {
		b.ejections.Add(1)
	}
}

// markHealthy records a re-admission (idempotent per transition).
func (b *Backend) markHealthy() {
	b.fails.Store(0)
	if b.healthy.CompareAndSwap(false, true) {
		b.readmits.Add(1)
	}
}

// retryableStatus reports whether a response status is worth retrying:
// transient gateway/availability failures only. 4xx (including 404 and
// 429) and handler-level 500s are deterministic answers, not noise.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do performs one proxied request with up to retries extra attempts
// on transport errors and retryable statuses, backing off linearly
// between attempts. It returns the final status and body, or an error
// when every attempt failed at the transport layer. Callers own
// admission (tryAcquire/release); do only moves bytes.
func (b *Backend) do(ctx context.Context, method, path, contentType string, body []byte) (int, []byte, error) {
	b.requests.Add(1)
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			b.retriesUsed.Add(1)
			select {
			case <-time.After(time.Duration(attempt) * backoff):
			case <-ctx.Done():
				b.errors.Add(1)
				return 0, nil, ctx.Err()
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, b.url+path, bytes.NewReader(body))
		if err != nil {
			b.errors.Add(1)
			return 0, nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := b.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if retryableStatus(resp.StatusCode) && attempt < retries {
			lastErr = fmt.Errorf("fleet: %s %s: backend status %d", method, path, resp.StatusCode)
			continue
		}
		return resp.StatusCode, data, nil
	}
	b.errors.Add(1)
	return 0, nil, fmt.Errorf("fleet: %s %s%s failed after %d attempts: %w", method, b.url, path, retries+1, lastErr)
}

// probe performs one readiness check against /readyz. It returns true
// on 200 within the timeout; anything else — transport error, 503
// (draining or not ready) — is a failure.
func (b *Backend) probe(timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := b.client.Do(req)
	if err != nil {
		b.probeFails.Add(1)
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.probeFails.Add(1)
		return false
	}
	return true
}

// BackendStats is one backend's section of the router /statsz report.
type BackendStats struct {
	URL         string `json:"url"`
	Healthy     bool   `json:"healthy"`
	InFlight    int64  `json:"in_flight"`
	MaxInFlight int64  `json:"max_in_flight"`
	Requests    int64  `json:"requests"`
	Errors      int64  `json:"errors"`
	Rejections  int64  `json:"rejections"`
	Ejections   int64  `json:"ejections"`
	Readmits    int64  `json:"readmits"`
	ProbeFails  int64  `json:"probe_fails"`
	Retries     int64  `json:"retries"`
}

// Stats returns the backend counters at this instant.
func (b *Backend) Stats() BackendStats {
	return BackendStats{
		URL:         b.url,
		Healthy:     b.healthy.Load(),
		InFlight:    b.inFlight.Load(),
		MaxInFlight: b.maxInFlight,
		Requests:    b.requests.Load(),
		Errors:      b.errors.Load(),
		Rejections:  b.rejections.Load(),
		Ejections:   b.ejections.Load(),
		Readmits:    b.readmits.Load(),
		ProbeFails:  b.probeFails.Load(),
		Retries:     b.retriesUsed.Load(),
	}
}
