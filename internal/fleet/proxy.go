package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/toltiers/toltiers/internal/api"
)

const (
	// maxProxyResponse bounds how much of a worker response the front
	// tier buffers before relaying it. Dispatch and batch replies are
	// small; this is a safety valve, not a working limit. A longer answer
	// is a worker failure.
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
	// abortPoll is how long a round trip waits on the socket before it
	// asks whether its caller is still there. A worker that answers
	// sooner never wakes the timer.
	abortPoll = 20 * time.Millisecond
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
	br     *bufio.Reader   // reads through c.Read
	ctx    context.Context // the call in flight's; what the deadline polls
	start  time.Time       // when the call in flight began
	buf    []byte          // the rendered request, then the response body
	resp   response
	reused bool
	keep   bool // false once the connection cannot carry another call
}

func (m *member) dial(ctx context.Context) (*workerConn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", m.addr)
	if err != nil {
		return nil, err
	}
	c := &workerConn{Conn: nc}
	c.br = bufio.NewReader(c)
	return c, nil
}

// Read is the socket under c.br. The deadline is never more than
// abortPoll away; each time it passes, poll decides whether to wait on.
func (c *workerConn) Read(p []byte) (int, error) {
	for {
		n, err := c.Conn.Read(p)
		if n > 0 || err == nil {
			return n, err
		}
		if err = c.poll(err); err != nil {
			return 0, err
		}
	}
}

// writeAll writes b whole, under the same deadline polling as Read.
func (c *workerConn) writeAll(b []byte) error {
	for {
		n, err := c.Conn.Write(b)
		if err == nil {
			return nil
		}
		b = b[n:]
		if err = c.poll(err); err != nil {
			return err
		}
	}
}

// poll handles an I/O error: nil when it was the abortPoll deadline and
// the call may wait another abortPoll (the deadline is re-armed), the
// context's error when the caller is gone, and err itself otherwise —
// a deadline past roundTripCap included.
func (c *workerConn) poll(err error) error {
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	if cerr := c.ctx.Err(); cerr != nil {
		return cerr
	}
	if now := time.Now(); now.Sub(c.start) < roundTripCap {
		_ = c.SetDeadline(now.Add(abortPoll))
		return nil
	}
	return err
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

// putConn ends a call's hold on c: back on the free list, or closed. A
// served call's round trip goes into the member's latency stats.
func (m *member) putConn(c *workerConn, served bool) {
	var rtt float64
	if served {
		rtt = float64(time.Since(c.start)) / float64(time.Millisecond)
	}
	if cap(c.buf) > maxIdleBuf {
		c.buf = nil
	}
	if cap(c.resp.arena) > maxIdleBuf || cap(c.resp.hdrs) > maxIdleBuf/32 {
		c.resp = response{}
	}
	c.reused = true
	m.connMu.Lock()
	if served {
		m.lat.Add(rtt)
		m.ring.Add(rtt)
	}
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
// error is a worker failure: no connection, a broken, malformed or
// timed-out exchange, or a 5xx that is not an admission shed.
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
	if st := c.resp.status; st >= 500 && (st != http.StatusServiceUnavailable || !c.resp.shed) {
		m.putConn(c, false)
		return nil, fmt.Errorf("worker returned %d", st)
	}
	return c, nil
}

// exchange writes the request and reads the whole response into c.resp
// and c.buf. It is capped at roundTripCap and dies with ctx within
// abortPoll: one SetDeadline per call, and a poll only when the worker
// is slower than that.
func (c *workerConn) exchange(ctx context.Context, m *member, path string, hdr http.Header, body []byte) error {
	c.ctx, c.start = ctx, time.Now()
	_ = c.SetDeadline(c.start.Add(abortPoll)) // a failure shows on the write
	err := c.do(m, path, hdr, body)
	c.ctx = nil
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
	err := c.writeAll(b)
	if err == nil {
		_, err = c.br.Peek(1)
	}
	if err != nil {
		// Neither a deadline nor a dead caller is a stale connection.
		if c.reused && c.ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			return errStale
		}
		return err
	}
	c.buf, err = c.resp.read(c.br, b[:0])
	if err != nil {
		return fmt.Errorf("reading worker response: %w", err)
	}
	c.keep = !c.resp.close
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
// entire response before relaying a byte, a transport error, malformed
// answer or bare 5xx moves to the next candidate (same-table-version
// siblings first, so a mid-rollout failover does not time-travel across
// versions), and 4xx, 429 and a 503 admission shed are relayed as-is —
// they are the worker's answer, not a worker failure, and replaying a
// shed on the siblings would amplify the very overload it reports.
//
// A proxied dispatch takes no pool-wide lock: the routing snapshot is an
// atomic pointer, the counters are atomics, and the free list and the
// latency stats sit under the member's own connMu.
func (p *Pool) Proxy(ctx context.Context, w http.ResponseWriter, hdr http.Header, path string, body []byte) bool {
	var buf [failoverAttempts]*member
	cands := p.candidates(hdr.Get(api.HeaderTenant), buf[:0])
	for i, m := range cands {
		if ctx.Err() != nil {
			break
		}
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
		m.requests.Add(1)
		p.proxied.Add(1)
		// The dispatch wire headers, and which worker served it.
		out := w.Header()
		c.resp.relay(out)
		out[api.HeaderWorker] = m.nameHdr
		w.WriteHeader(c.resp.status)
		_, _ = w.Write(c.buf)
		m.putConn(c, true)
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
