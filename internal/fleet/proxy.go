package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/toltiers/toltiers/internal/api"
)

// maxProxyResponse bounds how much of a worker response the front tier
// buffers before relaying it. Dispatch and batch replies are small;
// this is a safety valve, not a working limit.
const maxProxyResponse = 32 << 20

// proxyResult is one fully-read worker response: the router reads the
// whole body before touching the client's ResponseWriter, so a worker
// that dies mid-response fails over instead of poisoning the reply.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
}

// tierKey labels the request's tier for autoscale accounting, from the
// same annotation headers §IV-A dispatch resolves.
func tierKey(hdr http.Header) string {
	tol := hdr.Get(api.HeaderTolerance)
	if tol == "" {
		return ""
	}
	obj := hdr.Get(api.HeaderObjective)
	if obj == "" {
		obj = "response-time"
	}
	return obj + "/" + tol
}

// failoverAttempts bounds how many workers one dispatch may try before
// the front tier falls back to serving locally.
const failoverAttempts = 3

// Proxy routes one dispatch (or batch) to the fleet. It returns true
// when it wrote a response — success from some worker, possibly after
// transparent failover. It returns false without touching w when no
// live worker could serve the request (none registered, every candidate
// failed, or the caller's context died), so the caller can fall back to
// serving locally from the buffered body.
//
// Failover is correct, not just fast: each attempt reads the worker's
// entire response before relaying a byte, a transport error or 5xx
// moves to the next candidate (same-table-version siblings first, so a
// mid-rollout failover does not time-travel across versions), and
// 4xx/429 are relayed as-is — they are the worker's answer, not a
// worker failure.
func (p *Pool) Proxy(ctx context.Context, w http.ResponseWriter, hdr http.Header, path string, body []byte) bool {
	cands := p.candidates(hdr.Get(api.HeaderTenant))
	if len(cands) == 0 {
		p.mu.Lock()
		p.fallback++
		p.mu.Unlock()
		return false
	}
	attempts := min(failoverAttempts, len(cands))
	tier := tierKey(hdr)
	deadlineMS := api.ProbeDeadline(body) // both wire shapes carry it at the top level

	for tried := 0; tried < attempts && len(cands) > 0; tried++ {
		m := cands[0]
		cands = cands[1:]
		if tried == 0 && len(cands) > 1 {
			// Prefer same-table-version siblings for any failover of
			// this request: stable-partition the remaining candidates
			// so a mid-rollout retry lands on the version the first
			// pick served, falling through to the rest only when no
			// same-version sibling is left.
			p.mu.Lock()
			firstVersion := m.version
			same := make([]*member, 0, len(cands))
			other := make([]*member, 0, len(cands))
			for _, c := range cands {
				if c.version == firstVersion {
					same = append(same, c)
				} else {
					other = append(other, c)
				}
			}
			p.mu.Unlock()
			cands = append(same, other...)
		}

		if ctx.Err() != nil {
			p.mu.Lock()
			p.fallback++
			p.mu.Unlock()
			return false
		}
		start := time.Now()
		res, err := p.tryWorker(ctx, m, path, hdr, body)
		wallMS := float64(time.Since(start)) / float64(time.Millisecond)
		if err != nil {
			more := tried+1 < attempts && len(cands) > 0
			p.mu.Lock()
			m.counters.failures++
			if more {
				m.counters.failedOver++
			}
			p.mu.Unlock()
			p.logf("fleet: dispatch to %s failed (%v); %s", m.name, err, failoverWord(more))
			continue
		}
		p.observe(m, tier, deadlineMS, wallMS)
		p.mu.Lock()
		m.counters.requests++
		p.proxied++
		p.mu.Unlock()
		relay(w, m.name, res)
		return true
	}
	p.mu.Lock()
	p.fallback++
	p.mu.Unlock()
	return false
}

func failoverWord(more bool) string {
	if more {
		return "failing over to next candidate"
	}
	return "no candidates left, falling back to local serve"
}

// tryWorker performs one fully-buffered round trip. Transport errors,
// body-read errors, and 5xx all count as worker failure; anything else
// is the worker's answer.
func (p *Pool) tryWorker(ctx context.Context, m *member, path string, hdr http.Header, body []byte) (*proxyResult, error) {
	p.mu.Lock()
	base := m.base
	m.counters.inflight++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		m.counters.inflight--
		p.mu.Unlock()
	}()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(base, "/")+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for _, k := range []string{api.HeaderTolerance, api.HeaderObjective, api.HeaderTenant} {
		if v := hdr.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyResponse))
	if err != nil {
		return nil, fmt.Errorf("reading worker response: %w", err)
	}
	if resp.StatusCode >= 500 {
		return nil, fmt.Errorf("worker returned %d", resp.StatusCode)
	}
	return &proxyResult{status: resp.StatusCode, header: resp.Header, body: payload}, nil
}

// relay writes a buffered worker response to the client, preserving the
// dispatch wire headers and stamping which worker served it.
func relay(w http.ResponseWriter, worker string, res *proxyResult) {
	out := w.Header()
	for k, vv := range res.header {
		if k == api.HeaderContentType || k == api.HeaderRetryAfter || strings.HasPrefix(k, api.HeaderPrefix) {
			out[k] = append([]string(nil), vv...)
		}
	}
	out.Set(api.HeaderWorker, worker)
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}
