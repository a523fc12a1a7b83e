package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/toltiers/toltiers/internal/api"
)

const (
	// maxProxyResponse bounds how much of a worker response the front
	// tier buffers before relaying it. Dispatch and batch replies are
	// small; this is a safety valve, not a working limit.
	maxProxyResponse = 32 << 20
	// failoverAttempts bounds how many workers one dispatch may try
	// before the front tier falls back to serving locally.
	failoverAttempts = 3
	// maxIdleConns caps a worker's free list. A proxied call holds one
	// connection for its whole round trip, so a worker has as many open
	// as calls in flight; at most this many stay warm between calls.
	maxIdleConns = 256
	maxIdleBuf   = 64 << 10 // an idle connection keeps no larger buffer
	dialTimeout  = 5 * time.Second
	roundTripCap = 30 * time.Second
)

// forwarded are the request headers a worker gets: the §IV-A annotation
// and the trace id, so that the worker's flight recorder files the
// dispatch under the id the front tier answers with.
var forwarded = [...]string{api.HeaderTolerance, api.HeaderObjective, api.HeaderTenant, api.HeaderTrace}

// errStale is a kept-alive connection that failed before the first
// response byte: the worker closed it while it sat idle. The dispatch is
// redialled, and neither the worker nor the caller hears of it.
var errStale = errors.New("fleet: idle worker connection was closed")

// workerConn is one keep-alive HTTP/1.1 connection to a worker. A
// proxied call owns it from the free list until the response is relayed:
// the round trip runs on the caller's goroutine, and buf and resp hold
// the worker's answer until then.
type workerConn struct {
	net.Conn
	br     *bufio.Reader
	abort  func() // fails the I/O in flight; what a dead caller context runs
	buf    []byte // the rendered request, then the response body
	resp   *http.Response
	reused bool
	keep   bool // false once the connection cannot carry another call
}

func (m *member) dial(ctx context.Context) (*workerConn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", m.addr)
	if err != nil {
		return nil, err
	}
	c := &workerConn{Conn: nc, br: bufio.NewReader(nc)}
	c.abort = func() { _ = nc.SetDeadline(time.Unix(1, 0)) }
	return c, nil
}

// idleConn takes the most recently used connection off the free list.
func (m *member) idleConn() (c *workerConn) {
	m.connMu.Lock()
	if n := len(m.idle) - 1; n >= 0 {
		c, m.idle[n] = m.idle[n], nil
		m.idle = m.idle[:n]
	}
	m.connMu.Unlock()
	return c
}

// putConn ends a call's hold on c: back on the free list, or closed.
func (m *member) putConn(c *workerConn) {
	if cap(c.buf) > maxIdleBuf {
		c.buf = nil
	}
	c.resp, c.reused = nil, true
	m.connMu.Lock()
	keep := c.keep && !m.gone && len(m.idle) < maxIdleConns
	if keep {
		m.idle = append(m.idle, c)
	}
	m.connMu.Unlock()
	if !keep {
		c.Close()
	}
}

// retire closes the free list for good: the member left the pool.
func (m *member) retire() {
	m.connMu.Lock()
	idle := m.idle
	m.idle, m.gone = nil, true
	m.connMu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// roundTrip sends one dispatch to m and returns the connection holding
// its fully read answer; the caller relays it and calls putConn. An
// error is a worker failure: no connection, a broken or timed-out
// exchange, or a 5xx that is not an admission shed.
func (m *member) roundTrip(ctx context.Context, path string, hdr http.Header, body []byte) (*workerConn, error) {
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	c, err := m.idleConn(), error(nil)
	for {
		if c == nil {
			if c, err = m.dial(ctx); err != nil {
				return nil, err
			}
		}
		if err = c.exchange(ctx, m, path, hdr, body); err == nil {
			break
		}
		c.Close()
		if !errors.Is(err, errStale) {
			return nil, err
		}
		c = nil // a dialled connection is never stale: one retry at most
	}
	// A 503 with the exact retry hint is what an admission shed looks
	// like: the worker's answer, as a 429 is. Any other 5xx is a fault.
	if st := c.resp.StatusCode; st >= 500 && (st != http.StatusServiceUnavailable || c.resp.Header[api.HeaderRetryAfterMS] == nil) {
		m.putConn(c)
		return nil, fmt.Errorf("worker returned %d", st)
	}
	return c, nil
}

// exchange writes the request with one Write and reads the whole
// response into c.resp and c.buf. The exchange is capped at roundTripCap
// and dies with ctx.
func (c *workerConn) exchange(ctx context.Context, m *member, path string, hdr http.Header, body []byte) error {
	_ = c.SetDeadline(time.Now().Add(roundTripCap)) // a failure shows on the Write
	stop := context.AfterFunc(ctx, c.abort)
	err := c.do(m, path, hdr, body)
	if !stop() {
		// abort ran or is running, and its deadline may land on the
		// connection's next call: this was its last.
		c.keep = false
	}
	return err
}

func (c *workerConn) do(m *member, path string, hdr http.Header, body []byte) error {
	b := append(append(append(c.buf[:0], m.reqHead...), path...), m.reqHost...)
	for _, k := range forwarded {
		// Values from net/http's request parser hold no line breaks; one
		// from elsewhere that does is not forwarded.
		if v := hdr.Get(k); v != "" && !strings.ContainsAny(v, "\r\n") {
			b = append(append(append(append(b, k...), ": "...), v...), "\r\n"...)
		}
	}
	b = strconv.AppendInt(append(b, "Content-Length: "...), int64(len(body)), 10)
	b = append(append(b, "\r\n\r\n"...), body...)
	c.buf = b
	_, err := c.Write(b)
	if err == nil {
		_, err = c.br.Peek(1)
	}
	if err != nil {
		var ne net.Error
		if c.reused && !(errors.As(err, &ne) && ne.Timeout()) {
			return errStale
		}
		return err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return err
	}
	b = b[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := resp.Body.Read(b[len(b):min(cap(b), maxProxyResponse)])
		b = b[:len(b)+n]
		if err == io.EOF {
			c.keep = !resp.Close
			break
		}
		if len(b) == maxProxyResponse {
			c.keep = false // the rest of the body is still on the wire
			break
		}
		if err != nil {
			return fmt.Errorf("reading worker response: %w", err)
		}
	}
	c.buf, c.resp = b, resp
	return nil
}

// Proxy routes one dispatch (or batch) to the fleet. It returns true
// when it wrote a response — success from some worker, possibly after
// transparent failover. It returns false without touching w when no
// live worker could serve the request (none registered, every candidate
// failed, or the caller's context died), so the caller can fall back to
// serving locally from the same body: Proxy keeps no reference to it.
//
// Failover is correct, not just fast: each attempt reads the worker's
// entire response before relaying a byte, a transport error or bare 5xx
// moves to the next candidate (same-table-version siblings first, so a
// mid-rollout failover does not time-travel across versions), and 4xx,
// 429 and a 503 admission shed are relayed as-is — they are the worker's
// answer, not a worker failure, and replaying a shed on the siblings
// would amplify the very overload it reports.
//
// A proxied dispatch takes Pool.mu once, in observe.
func (p *Pool) Proxy(ctx context.Context, w http.ResponseWriter, hdr http.Header, path string, body []byte) bool {
	var buf [failoverAttempts]*member
	cands := p.candidates(hdr.Get(api.HeaderTenant), buf[:0])
	var tier tierKey
	if tol := hdr.Get(api.HeaderTolerance); tol != "" {
		tier = tierKey{obj: hdr.Get(api.HeaderObjective), tol: tol}
		if tier.obj == "" {
			tier.obj = "response-time"
		}
	}
	deadlineMS := api.ProbeDeadline(body) // both wire shapes carry it at the top level

	for i, m := range cands {
		if ctx.Err() != nil {
			break
		}
		start := time.Now()
		c, err := m.roundTrip(ctx, path, hdr, body)
		if err != nil {
			if ctx.Err() != nil {
				break // the caller gave up; the worker is not to blame
			}
			more := i+1 < len(cands)
			m.failures.Add(1)
			if more {
				m.failedOver.Add(1)
			}
			p.logf("fleet: dispatch to %s failed (%v); %s", m.name, err, failoverWord(more))
			if i == 0 {
				// Any failover of this request prefers the siblings on
				// the table version its first pick served.
				ver, same := m.version.Load(), 1
				for j := 1; j < len(cands); j++ {
					if c := cands[j]; c.version.Load() == ver {
						copy(cands[same+1:j+1], cands[same:j])
						cands[same] = c
						same++
					}
				}
			}
			continue
		}
		p.observe(m, tier, deadlineMS, float64(time.Since(start))/float64(time.Millisecond))
		m.requests.Add(1)
		p.proxied.Add(1)
		// The dispatch wire headers, and which worker served it. The
		// value slices are the parsed response's own; nobody else holds it.
		out := w.Header()
		for k, vv := range c.resp.Header {
			if k == api.HeaderContentType || k == api.HeaderRetryAfter || strings.HasPrefix(k, api.HeaderPrefix) {
				out[k] = vv
			}
		}
		out[api.HeaderWorker] = m.nameHdr
		w.WriteHeader(c.resp.StatusCode)
		_, _ = w.Write(c.buf)
		m.putConn(c)
		return true
	}
	p.fallback.Add(1)
	return false
}

func failoverWord(more bool) string {
	if more {
		return "failing over to next candidate"
	}
	return "no candidates left, falling back to local serve"
}
