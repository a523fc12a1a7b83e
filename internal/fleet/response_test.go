package fleet

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/toltiers/toltiers/internal/api"
)

// The hand-read worker response against net/http's own reader.

// batchReply is a 64-item /dispatch/batch answer: over net/http's 2 KB
// buffer, so it leaves a worker chunked.
func batchReply() []byte {
	var b bytes.Buffer
	b.WriteString(`{"items":[`)
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&b, `{"confidence":0.9%02d,"tier":0.05,"policy":"single:0","backend":"b%d","class":%d},`, i, i%4, i)
	}
	b.WriteString(`{}],"failed":0}`)
	return b.Bytes()
}

// tapListener keeps a copy of everything its server writes.
type tapListener struct {
	net.Listener
	mu  sync.Mutex
	out bytes.Buffer
}

type tapConn struct {
	net.Conn
	l *tapListener
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, l: l}, nil
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.l.mu.Lock()
	c.l.out.Write(p)
	c.l.mu.Unlock()
	return c.Conn.Write(p)
}

// rendered is the answer a net/http server running h writes to one
// POST /dispatch, byte for byte.
func rendered(tb testing.TB, h http.HandlerFunc) string {
	tb.Helper()
	ts := httptest.NewUnstartedServer(h)
	tap := &tapListener{Listener: ts.Listener}
	ts.Listener = tap
	ts.Start()
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/dispatch", api.ContentTypeJSON, strings.NewReader(`{"request_id":7}`))
	if err != nil {
		tb.Fatal(err)
	}
	_, err = io.ReadAll(resp.Body) // the whole answer is on the tap once the client has read it
	resp.Body.Close()
	if err != nil {
		tb.Fatal(err)
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return tap.out.String()
}

// renderedSeeds are the answers a worker's net/http server gives, one
// of each shape the proxy relays, by name.
func renderedSeeds(tb testing.TB) [][2]string {
	dispatch := func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		h := w.Header()
		h.Set(api.HeaderContentType, api.ContentTypeJSON)
		h.Set(api.HeaderPolicy, "single:0")
		h.Set(api.HeaderBackend, "b0")
		h.Set(api.HeaderLatencyMS, "12.500")
		h.Set(api.HeaderCostUSD, "0.001000")
		h.Set(api.HeaderTableVersion, "3")
		h.Set(api.HeaderTrace, "00000000000000ff")
		_, _ = io.WriteString(w, `{"confidence":0.9,"tier":0.05,"objective":"response-time","policy":"single:0","backend":"b0"}`)
	}
	return [][2]string{
		{"dispatch", rendered(tb, dispatch)},
		{"chunked batch", rendered(tb, func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			w.Header().Set(api.HeaderContentType, api.ContentTypeJSON)
			for _, piece := range bytes.SplitAfter(batchReply(), []byte("},")) {
				_, _ = w.Write(piece)
				w.(http.Flusher).Flush()
			}
		})},
		{"503 shed", rendered(tb, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(api.HeaderRetryAfter, "1")
			w.Header().Set(api.HeaderRetryAfterMS, "250.000")
			http.Error(w, "shed", http.StatusServiceUnavailable)
		})},
		{"connection close", rendered(tb, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Connection", "close")
			dispatch(w, r)
		})},
		{"chunked with trailer", rendered(tb, func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			w.Header().Set("Trailer", "X-Checksum")
			w.Header().Set(api.HeaderContentType, api.ContentTypeJSON)
			_, _ = io.WriteString(w, `{"items":[{}],`)
			w.(http.Flusher).Flush()
			_, _ = io.WriteString(w, `"failed":0}`)
			w.Header().Set("X-Checksum", "c0ffee")
		})},
	}
}

// relayedOf is what the proxy relayed of a parsed response before it
// read answers by hand.
func relayedOf(h http.Header) http.Header {
	out := http.Header{}
	for k, vv := range h {
		if k == api.HeaderContentType || k == api.HeaderRetryAfter || strings.HasPrefix(k, api.HeaderPrefix) {
			out[k] = vv
		}
	}
	return out
}

// checkResponse holds the hand reader to http.ReadResponse + io.ReadAll
// on data: whenever it accepts, the status, the relayed headers, the
// body and the bytes left for the next answer are net/http's, and an
// answer it would pool is one net/http would keep the connection for.
func checkResponse(t testing.TB, data []byte) (accepted bool) {
	t.Helper()
	var r response
	br := bufio.NewReader(bytes.NewReader(data))
	body, err := r.read(br, nil)
	if err != nil {
		return false
	}
	wbr := bufio.NewReader(bytes.NewReader(data))
	resp, werr := http.ReadResponse(wbr, nil)
	if werr != nil {
		t.Fatalf("accepted %q, which net/http refuses: %v", data, werr)
	}
	want, werr := io.ReadAll(resp.Body)
	if werr != nil {
		t.Fatalf("accepted %q, whose body net/http refuses: %v", data, werr)
	}
	if r.status != resp.StatusCode || !bytes.Equal(body, want) {
		t.Fatalf("read %d %q from %q; net/http %d %q", r.status, body, data, resp.StatusCode, want)
	}
	got, wantHdr := http.Header{}, relayedOf(resp.Header)
	r.relay(got)
	if !reflect.DeepEqual(got, wantHdr) {
		t.Fatalf("relayed %v from %q; net/http %v", got, data, wantHdr)
	}
	if r.shed != (wantHdr[api.HeaderRetryAfterMS] != nil) || !r.close && resp.Close {
		t.Fatalf("shed=%v close=%v from %q; net/http headers %v close=%v", r.shed, r.close, data, resp.Header, resp.Close)
	}
	rest, _ := io.ReadAll(br)
	wantRest, _ := io.ReadAll(wbr)
	if !bytes.Equal(rest, wantRest) {
		t.Fatalf("left %q of %q for the next answer; net/http %q", rest, data, wantRest)
	}
	return true
}

// FuzzWorkerResponse: whatever the bytes, an answer the hand reader
// accepts reads as net/http reads it. Every answer a net/http server
// renders in the seed corpus is accepted, twice over on one stream.
func FuzzWorkerResponse(f *testing.F) {
	for _, seed := range renderedSeeds(f) {
		if !checkResponse(f, []byte(seed[1])) || !checkResponse(f, []byte(seed[1]+seed[1])) {
			f.Fatalf("the hand reader refuses the %s answer:\n%s", seed[0], seed[1])
		}
		f.Add([]byte(seed[1]))
	}
	for _, s := range []string{
		"HTTP/1.0 200 OK\r\nx-toltiers-policy: a\r\nX-TOLTIERS-POLICY: b\r\nx-toltiers-other: c\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 429 Too Many Requests\r\nretry-after: 1\r\nX-Toltiers-Retry-After-Ms:  12.5 \r\nContent-Length: 0\r\n\r\nHTTP/1.1 200 OK\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\nX-A: 1\r\nX-B: 2\r\n\r\n",
		"HTTP/1.1 200\r\nContent-Length: 05\r\nContent-Length: 5\r\n\r\nhello",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkResponse(t, data) })
}
