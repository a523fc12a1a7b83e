package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
)

// wireConn is the generator's end of one keep-alive connection. It
// writes prebuilt request bytes and parses the response with net/http's
// reader, so the generator costs a write, a read and a parse per call
// and owns no goroutine besides its sender.
type wireConn struct {
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dialWire(addr string) (*wireConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &wireConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (w *wireConn) close() { _ = w.c.Close() }

// roundTrip sends one request and reads the whole response. The body is
// valid until the next call.
func (w *wireConn) roundTrip(req []byte) (status int, hdr http.Header, body []byte, err error) {
	if _, err = w.c.Write(req); err != nil {
		return 0, nil, nil, err
	}
	resp, err := http.ReadResponse(w.br, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	w.body.Reset()
	_, err = w.body.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, resp.Header, w.body.Bytes(), err
}

// memWriter is the in-memory ResponseWriter the traced pass hands to
// handlers it calls in process.
type memWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func newMemWriter() *memWriter { return &memWriter{hdr: make(http.Header)} }

func (w *memWriter) Header() http.Header { return w.hdr }
func (w *memWriter) WriteHeader(c int)   { w.status = c }
func (w *memWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(b)
}

func (w *memWriter) reset() {
	clear(w.hdr)
	w.status = 0
	w.buf.Reset()
}

// inProcessRequest is the server-side view of a call, for handing to a
// handler directly.
func inProcessRequest(path string, class mixClass, tenant string, body []byte) *http.Request {
	r, err := http.NewRequest(http.MethodPost, "http://toltiers-bench"+path, bytes.NewReader(body))
	if err != nil {
		panic(err) // constant method and URL
	}
	r.Header.Set("Content-Type", "application/json")
	r.Header.Set("Tolerance", formatTolerance(class.tolerance))
	r.Header.Set("Objective", string(class.objective))
	r.Header.Set("Tenant", tenant)
	return r
}

// nullServer answers every request with a canned 200 of a typical
// answer's size: kernel + net/http + generator, the round-trip floor no
// change to the program can beat.
func nullServer(canned []byte) (*listener, error) {
	return listen(nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(canned)
	}))
}
