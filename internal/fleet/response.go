package fleet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/textproto"
	"strconv"
	"strings"

	"github.com/toltiers/toltiers/internal/api"
)

// relayKeys are the response headers a proxied answer carries back by
// name. Any other X-Toltiers- header is relayed too, under its canonical
// spelling.
var relayKeys = []string{
	api.HeaderContentType, api.HeaderRetryAfter, api.HeaderTrace, api.HeaderPolicy, api.HeaderBackend,
	api.HeaderLatencyMS, api.HeaderCostUSD, api.HeaderTableVersion, api.HeaderRetryAfterMS, api.HeaderWorker,
}

var (
	errMalformed = errors.New("malformed or unsupported worker response")
	errTooLong   = fmt.Errorf("worker response over the %d-byte relay limit", maxProxyResponse)
)

// response is a worker's answer as the proxy keeps it: the status, the
// relayed header values in one arena, and what the framing said.
type response struct {
	status int
	shed   bool // carries X-Toltiers-Retry-After-Ms: an admission shed
	close  bool // HTTP/1.0 or a Connection header: the connection ends here
	arena  []byte
	hdrs   []relayedHeader
}

// relayedHeader is one relayed header line, its value arena[off:end].
type relayedHeader struct {
	key      string
	off, end int
}

// read reads one answer off br and appends its body to body. The worker
// is this program's own net/http server, so read knows only what that
// sends: an HTTP/1.x status line, headers on CRLF lines, and a body
// framed by Content-Length or chunked, trailer included. Anything else
// is an error. FuzzWorkerResponse holds it to http.ReadResponse on every
// answer it accepts.
func (r *response) read(br *bufio.Reader, body []byte) ([]byte, error) {
	line, err := readLine(br)
	if err != nil {
		return body, err
	}
	// "HTTP/1.x NNN" and an optional " reason".
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || line[7]|1 != '1' || line[8] != ' ' || len(line) > 12 && line[12] != ' ' {
		return body, errMalformed
	}
	st, err := strconv.ParseUint(string(line[9:12]), 10, 16)
	// No informational answer, and none without a body to frame.
	if err != nil || st < 200 || st == http.StatusNoContent || st == http.StatusNotModified {
		return body, errMalformed
	}
	http10 := line[7] == '0'
	r.status, r.shed, r.close, r.arena, r.hdrs = int(st), false, http10, r.arena[:0], r.hdrs[:0]
	length, digits, chunked := -1, 0, false
	for {
		if line, err = readLine(br); err != nil || len(line) == 0 {
			break
		}
		k, v, ok := headerLine(line)
		switch {
		case !ok:
			return body, errMalformed
		case equalFold(k, "Content-Length"):
			// Duplicates must agree as text, as net/http requires; two
			// digit strings of one value and one length are the same.
			n, err := strconv.ParseUint(string(v), 10, 63)
			if err != nil || length >= 0 && (int(n) != length || len(v) != digits) {
				return body, errMalformed
			}
			if n > maxProxyResponse {
				return body, errTooLong
			}
			length, digits = int(n), len(v)
		case equalFold(k, "Transfer-Encoding"):
			if chunked || !equalFold(v, "chunked") {
				return body, errMalformed
			}
			chunked = true
		case equalFold(k, "Connection"):
			r.close = true
		case equalFold(k, "Trailer"):
			// net/http refuses these as declared trailers.
			if lv := bytes.ToLower(v); bytes.Contains(lv, []byte("content-length")) || bytes.Contains(lv, []byte("transfer-encoding")) || bytes.Contains(lv, []byte("trailer")) {
				return body, errMalformed
			}
		default:
			if key := relayKey(k); key != "" {
				r.hdrs = append(r.hdrs, relayedHeader{key, len(r.arena), len(r.arena) + len(v)})
				r.arena = append(r.arena, v...)
				r.shed = r.shed || key == api.HeaderRetryAfterMS
			}
		}
	}
	switch {
	case err != nil:
		return body, err
	case chunked && length < 0 && !http10:
		return readChunked(br, body)
	case !chunked && length >= 0:
		return readFull(br, body, length)
	}
	return body, errMalformed
}

// readFull appends the next n bytes of br to body, growing body as the
// bytes arrive rather than by what the worker declared.
func readFull(br *bufio.Reader, body []byte, n int) ([]byte, error) {
	for end := len(body) + n; len(body) < end; {
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
		k, err := br.Read(body[len(body):min(end, cap(body))])
		if body = body[:len(body)+k]; err != nil {
			return body, err
		}
	}
	return body, nil
}

// readChunked appends a chunked body to body: chunk sizes in plain hex
// (no extensions), each chunk closed by CRLF, then the trailer section.
func readChunked(br *bufio.Reader, body []byte) ([]byte, error) {
	for {
		line, err := readLine(br)
		if err != nil {
			return body, err
		}
		n, err := strconv.ParseUint(string(line), 16, 64)
		if err != nil || len(line) > 16 {
			return body, errMalformed
		}
		if n == 0 {
			break
		}
		if n > uint64(maxProxyResponse-len(body)) {
			return body, errTooLong
		}
		if body, err = readFull(br, body, int(n)); err != nil {
			return body, err
		}
		if line, err = readLine(br); err != nil || len(line) != 0 {
			return body, errMalformed
		}
	}
	// The trailer: its closing CRLF alone, or header lines that end within
	// the reader's buffer, as net/http requires. Reading it leaves the
	// connection at the next answer.
	if p, err := br.Peek(2); err == nil && string(p) == "\r\n" {
		_, _ = br.Discard(2)
		return body, nil
	}
	for n := 4; ; n++ {
		p, err := br.Peek(n)
		if len(p) >= 4 && string(p[len(p)-4:]) == "\r\n\r\n" {
			break
		}
		if err != nil {
			return body, errMalformed
		}
	}
	for {
		line, err := readLine(br)
		if err != nil || len(line) == 0 {
			return body, err
		}
		if _, _, ok := headerLine(line); !ok {
			return body, errMalformed
		}
	}
}

// readLine returns the next CRLF-terminated line without its CRLF, as a
// slice of br's buffer valid until the next read. A line that does not
// fit the buffer is an error.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == nil && (len(line) < 2 || line[len(line)-2] != '\r') {
		err = errMalformed
	}
	if err != nil {
		return nil, err
	}
	return line[:len(line)-2], nil
}

// headerLine splits "Key: value" into a token key and the value without
// surrounding blanks. ok is false for anything net/http would refuse,
// and for a key with a blank or a folded line, which it would not.
func headerLine(line []byte) (k, v []byte, ok bool) {
	colon := 0
	for ; colon < len(line) && line[colon] != ':'; colon++ {
		if c := line[colon]; !('a' <= c|0x20 && c|0x20 <= 'z' || '0' <= c && c <= '9' || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return nil, nil, false
		}
	}
	if colon == 0 || colon == len(line) {
		return nil, nil, false
	}
	for _, c := range line[colon+1:] {
		if c < ' ' && c != '\t' || c == 0x7f {
			return nil, nil, false
		}
	}
	return line[:colon], bytes.Trim(line[colon+1:], " \t"), true
}

// relayKey is the key a header named k is relayed under: the api
// constant it spells in any case, the canonical form of any other
// X-Toltiers- name, or "" for a header that is not relayed.
func relayKey(k []byte) string {
	for _, key := range relayKeys {
		if equalFold(k, key) {
			return key
		}
	}
	if len(k) >= len(api.HeaderPrefix) && equalFold(k[:len(api.HeaderPrefix)], api.HeaderPrefix) {
		return textproto.CanonicalMIMEHeaderKey(string(k))
	}
	return ""
}

// equalFold is ASCII case-insensitive equality.
func equalFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range len(b) {
		if c := s[i]; b[i] != c && (b[i]|0x20 != c|0x20 || c|0x20 < 'a' || c|0x20 > 'z') {
			return false
		}
	}
	return true
}

// relay sets the answer's relayed headers on out, each key's values in
// arrival order, replacing what out held under that key. Every value is
// a slice of one string and every value slice of one backing array: two
// allocations, none when nothing is relayed. It consumes the index.
func (r *response) relay(out http.Header) {
	if len(r.hdrs) == 0 {
		return
	}
	arena, vals, n := string(r.arena), make([]string, len(r.hdrs)), 0
	for i, h := range r.hdrs {
		if h.key == "" {
			continue // relayed with an earlier line of its key
		}
		from := n
		for j := range r.hdrs[i:] {
			if g := &r.hdrs[i+j]; g.key == h.key {
				vals[n], g.key = arena[g.off:g.end], ""
				n++
			}
		}
		out[h.key] = vals[from:n:n]
	}
}
