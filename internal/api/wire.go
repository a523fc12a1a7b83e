package api

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// The data plane's codec. The three tier-execution endpoints exchange
// two tiny request shapes and three flat result shapes at the node's
// full request rate, so they do not go through reflection:
//
//   - Decode*: a strict scanner accepts a body only when it can prove
//     the struct it fills is the one encoding/json would produce; every
//     other body — unknown or case-folded keys, escapes, duplicates,
//     null, exotic numbers, trailing bytes — is decoded by encoding/json
//     over the same bytes, whose result is returned verbatim. Accept,
//     reject and error text therefore match encoding/json by
//     construction (FuzzDispatchWire holds the scanner to its half).
//   - Append*: one append-style renderer per result shape, byte for byte
//     what json.NewEncoder(w).Encode writes (FuzzResultRender). There is
//     no fallback on this side; the wire structs keep their tags for
//     the SDK and every control-plane endpoint. A batch pays per item
//     only for what varies per item: the tier segment its items share
//     is rendered once and copied (tierMemo), a float that is a short
//     decimal is written without strconv's shortest-digit search, and
//     a string is escaped by one table lookup per byte.

// Fields a request body may carry.
const (
	fieldID uint8 = 1 << iota
	fieldIDs
	fieldDeadline
)

// call is what the scanner extracts from a body.
type call struct {
	id       int
	ids      []int
	deadline float64
}

// DecodeCompute decodes a POST /compute body as
// json.NewDecoder(bytes.NewReader(body)).Decode(into) would.
func DecodeCompute(body []byte, into *ComputeRequest) error {
	var c call
	if scanCall(body, fieldID, &c, false) {
		into.RequestID = c.id
		return nil
	}
	return decodeJSON(body, into)
}

// DecodeDispatch decodes a POST /dispatch body as
// json.NewDecoder(bytes.NewReader(body)).Decode(into) would.
func DecodeDispatch(body []byte, into *DispatchRequest) error {
	var c call
	if scanCall(body, fieldID|fieldDeadline, &c, false) {
		into.RequestID, into.DeadlineMS = c.id, c.deadline
		return nil
	}
	return decodeJSON(body, into)
}

// DecodeDispatchBatch decodes a POST /dispatch/batch body as
// json.NewDecoder(bytes.NewReader(body)).Decode(into) would, and like it
// fills into.RequestIDs' spare capacity before growing it — a caller
// that recycles the slice decodes without allocating. into must
// otherwise be zero.
func DecodeDispatchBatch(body []byte, into *DispatchBatchRequest) error {
	c := call{ids: into.RequestIDs}
	if scanCall(body, fieldIDs|fieldDeadline, &c, true) {
		into.RequestIDs, into.DeadlineMS = c.ids, c.deadline
		return nil
	}
	return decodeJSON(body, into)
}

// decodeJSON is the encoding/json half. It decodes into a copy so that
// into does not escape through the any: a caller's request struct stays
// on its stack when the scanner answers.
func decodeJSON[T any](body []byte, into *T) error {
	v := *into
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&v)
	*into = v
	return err
}

// scanCall reports whether b is exactly one JSON object holding each of
// the allowed fields at most once, keys spelled plainly, numbers in the
// forms the scanner parses itself, nothing but whitespace around it —
// and if so leaves the values in c. With keepIDs the request_ids land in
// c.ids (appended from its start); without, they are only checked. On
// false c is garbage and the caller decodes b with encoding/json.
func scanCall(b []byte, allowed uint8, c *call, keepIDs bool) bool {
	s := scanner{b: b}
	if !s.eat('{') {
		return false
	}
	if !s.eat('}') {
		var seen uint8
		for {
			k := s.key()
			if k&allowed == 0 || k&seen != 0 {
				return false
			}
			seen |= k
			if !s.eat(':') {
				return false
			}
			var ok bool
			switch k {
			case fieldID:
				c.id, ok = s.integer()
			case fieldIDs:
				c.ids, ok = s.integers(c.ids[:0], keepIDs)
			case fieldDeadline:
				c.deadline, ok = s.float()
			}
			if !ok {
				return false
			}
			if s.eat(',') {
				continue
			}
			if s.eat('}') {
				break
			}
			return false
		}
	}
	s.space()
	return s.i == len(s.b)
}

// scanner is a cursor over a request body.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c, after any whitespace, if it is next.
func (s *scanner) eat(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key consumes one of the three field names in its exact spelling and
// returns its bit; anything else (a case-folded or escaped spelling
// included, which encoding/json would still match) returns 0.
func (s *scanner) key() uint8 {
	s.space()
	rest := s.b[s.i:]
	for _, f := range [...]struct {
		name string
		bit  uint8
	}{
		{`"request_id"`, fieldID},
		{`"request_ids"`, fieldIDs},
		{`"deadline_ms"`, fieldDeadline},
	} {
		if len(rest) >= len(f.name) && string(rest[:len(f.name)]) == f.name {
			s.i += len(f.name)
			return f.bit
		}
	}
	return 0
}

// digits consumes a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && s.b[s.i]-'0' <= 9 {
		s.i++
	}
	return s.i - start
}

// intPart consumes the integer part of a JSON number, -?(0|[1-9][0-9]*).
func (s *scanner) intPart() bool {
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	start := s.i
	n := s.digits()
	return n == 1 || (n > 1 && s.b[start] != '0')
}

// integer consumes a JSON number with neither fraction nor exponent that
// fits an int — what encoding/json accepts for an int field. Whatever
// follows it is the caller's to reject.
func (s *scanner) integer() (int, bool) {
	s.space()
	start := s.i
	if !s.intPart() || s.i-start > 18 { // 18 digits cannot overflow int64
		return 0, false
	}
	v, err := strconv.ParseInt(string(s.b[start:s.i]), 10, strconv.IntSize)
	return int(v), err == nil
}

// integers consumes an array of integers, appending them to dst when
// keep is set. Like encoding/json it answers [] with an empty, non-nil
// slice.
func (s *scanner) integers(dst []int, keep bool) ([]int, bool) {
	if !s.eat('[') {
		return nil, false
	}
	if s.eat(']') {
		if keep && dst == nil {
			dst = []int{}
		}
		return dst, true
	}
	for {
		v, ok := s.integer()
		if !ok {
			return nil, false
		}
		if keep {
			dst = append(dst, v)
		}
		if s.eat(',') {
			continue
		}
		return dst, s.eat(']')
	}
}

// float consumes a JSON number and parses it as encoding/json does,
// with strconv.ParseFloat; an out-of-range literal is left to it.
func (s *scanner) float() (float64, bool) {
	s.space()
	return s.number()
}

// number is float without the leading whitespace.
func (s *scanner) number() (float64, bool) {
	start := s.i
	if !s.intPart() {
		return 0, false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if s.digits() == 0 {
			return 0, false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			return 0, false
		}
	}
	if s.i-start > 32 { // keeps the conversion below on the stack
		return 0, false
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, err == nil
}

// ScanInt64 and ScanFloat read the JSON number that starts at b[i],
// skipping no whitespace, and return it with the index just past it; ok
// is false unless one starts there in the scanner's grammar and fits.
// ScanInt64 takes an integer with neither fraction nor exponent that
// fits an int64. The profile matrix codec parses its rows with them.
func ScanInt64(b []byte, i int) (v int64, next int, ok bool) {
	s := scanner{b: b, i: i}
	if !s.intPart() || s.i-i > 20 { // a sign and 19 digits
		return 0, s.i, false
	}
	v, err := strconv.ParseInt(string(b[i:s.i]), 10, 64)
	return v, s.i, err == nil
}

// ScanFloat: see ScanInt64.
func ScanFloat(b []byte, i int) (v float64, next int, ok bool) {
	s := scanner{b: b, i: i}
	v, ok = s.number()
	return v, s.i, ok
}

// AppendComputeResult appends r and a newline to dst, byte for byte what
// json.NewEncoder(w).Encode(r) writes. A non-finite float is the
// encoder's *json.UnsupportedValueError and leaves dst as it was.
func AppendComputeResult(dst []byte, r *ComputeResult) ([]byte, error) {
	if err := r.checkFinite(); err != nil {
		return dst, err
	}
	dst = append(dst, '{')
	dst = appendComputeFields(dst, r, nil)
	return append(dst, '}', '\n'), nil
}

// AppendDispatchResult is AppendComputeResult for a DispatchResult.
func AppendDispatchResult(dst []byte, r *DispatchResult) ([]byte, error) {
	if err := r.checkFinite(); err != nil {
		return dst, err
	}
	dst = append(dst, '{')
	dst = appendDispatchFields(dst, r, nil)
	return append(dst, '}', '\n'), nil
}

// AppendDispatchBatchResult is AppendComputeResult for a
// DispatchBatchResult.
func AppendDispatchBatchResult(dst []byte, r *DispatchBatchResult) ([]byte, error) {
	for i := range r.Items {
		if err := r.Items[i].checkFinite(); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `{"items":`...)
	if r.Items == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		var memo tierMemo
		for i := range r.Items {
			if i > 0 {
				dst = append(dst, ',')
			}
			it := &r.Items[i]
			dst = append(dst, '{')
			dst = appendDispatchFields(dst, &it.DispatchResult, &memo)
			memo.prev = &it.ComputeResult
			if it.Error != "" {
				dst = appendString(append(dst, `,"error":`...), it.Error)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if r.Failed != 0 {
		dst = strconv.AppendInt(append(dst, `,"failed":`...), int64(r.Failed), 10)
	}
	return append(dst, '}', '\n'), nil
}

func (r *ComputeResult) checkFinite() error {
	return firstNonFinite(r.Confidence, r.Tier, r.LatencyMS, r.CostUSD)
}

func (r *DispatchResult) checkFinite() error {
	return firstNonFinite(r.Confidence, r.Tier, r.LatencyMS, r.CostUSD, r.IaaSUSD)
}

// firstNonFinite returns encoding/json's error for the first NaN or
// infinity among fs, in field order.
func firstNonFinite(fs ...float64) error {
	for _, f := range fs {
		if f-f != 0 { // 0 for every finite f, NaN for NaN and ±Inf
			return &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
	}
	return nil
}

// tierMemo is a batch's previous item and where in dst its tier
// segment, `,"tier":…,"objective":…,"policy":…`, sits. One rule serves
// a batch's window, so the segment is the same for every served item:
// an item whose tier bits, objective and policy equal its predecessor's
// copies the bytes. The batch loop, not the renderer, sets prev: a
// renderer that stored r would send every single result to the heap.
type tierMemo struct {
	prev       *ComputeResult // nil at the first item
	start, end int
}

// appendComputeFields appends r's fields, comma-separated and without
// the braces, so the embedding structs continue the same object. memo
// is nil for a single result.
func appendComputeFields(dst []byte, r *ComputeResult, memo *tierMemo) []byte {
	if len(r.Transcript) > 0 {
		dst = append(dst, `"transcript":[`...)
		for i, v := range r.Transcript {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, ']', ',')
	}
	if r.Class != nil {
		dst = strconv.AppendInt(append(dst, `"class":`...), int64(*r.Class), 10)
		dst = append(dst, ',')
	}
	dst = AppendFloat(append(dst, `"confidence":`...), r.Confidence)
	if memo != nil && memo.prev != nil && math.Float64bits(memo.prev.Tier) == math.Float64bits(r.Tier) &&
		memo.prev.Objective == r.Objective && memo.prev.Policy == r.Policy {
		dst = append(dst, dst[memo.start:memo.end]...)
	} else {
		start := len(dst)
		dst = AppendFloat(append(dst, `,"tier":`...), r.Tier)
		dst = appendString(append(dst, `,"objective":`...), r.Objective)
		dst = appendString(append(dst, `,"policy":`...), r.Policy)
		if memo != nil {
			memo.start, memo.end = start, len(dst)
		}
	}
	dst = AppendFloat(append(dst, `,"latency_ms":`...), r.LatencyMS)
	dst = AppendFloat(append(dst, `,"cost_usd":`...), r.CostUSD)
	return strconv.AppendBool(append(dst, `,"escalated":`...), r.Escalated)
}

func appendDispatchFields(dst []byte, r *DispatchResult, memo *tierMemo) []byte {
	dst = appendComputeFields(dst, &r.ComputeResult, memo)
	dst = appendString(append(dst, `,"backend":`...), r.Backend)
	dst = strconv.AppendInt(append(dst, `,"started":`...), int64(r.Started), 10)
	if r.Hedged {
		dst = append(dst, `,"hedged":true`...)
	}
	if r.DeadlineExceeded {
		dst = append(dst, `,"deadline_exceeded":true`...)
	}
	if r.Downgraded {
		dst = append(dst, `,"downgraded":true`...)
	}
	return AppendFloat(append(dst, `,"iaas_usd":`...), r.IaaSUSD)
}

// shortMax bounds AppendFloat's short-decimal path: below it ulp(f) is
// at most 2^-28 < 0.5e-8, and n = |f|·1e8 is at most 2^51, exact in a
// float64.
const shortMax = 1 << 51 / 1e8

// AppendFloat appends a finite float by encoding/json's rule: ES6
// number-to-string, i.e. shortest 'f' form except 'e' below 1e-6 and
// from 1e21, with a two-digit negative exponent's leading zero dropped.
//
// A float that is a decimal D = n/1e8 skips strconv's shortest-digit
// search (Ryu). The check float64(n)/1e8 == |f| makes |f| the nearest
// double to D (float64(n) is exact and the division correctly rounded),
// so D lies in |f|'s rounding interval. That interval is ulp(f) wide,
// under 0.5e-8, so no other multiple of 1e-8 lies in it; and every
// decimal with no more significant digits than D, at D's magnitude, is
// such a multiple. (One of lower magnitude in the interval would put
// D's power of ten there too, and so make D that one-digit power.) D,
// trailing zeros trimmed, is therefore the unique shortest decimal that
// reads back as f: exactly what strconv writes. Integer nanoseconds in
// milliseconds always take this path; confidences seldom do. The
// profile matrix codec renders its rows with it too.
func AppendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs >= 1e-6 && abs < shortMax {
		if n := uint64(abs*1e8 + 0.5); float64(n)/1e8 == abs {
			if f < 0 {
				dst = append(dst, '-')
			}
			dst = strconv.AppendUint(dst, n/1e8, 10)
			if frac := n % 1e8; frac != 0 {
				dst = strconv.AppendUint(dst, 1e8+frac, 10) // a 1, then the eight fraction digits
				dst[len(dst)-9] = '.'
				dst = bytes.TrimRight(dst, "0") // stops at frac's last nonzero digit
			}
			return dst
		}
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// htmlSafe[b] reports whether the ASCII byte b is copied into a string
// as it is, as encoding/json's htmlSafeSet does.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// appendString appends s quoted by encoding/json's escaper with its
// default HTML escaping: \" \\ \b \f \n \r \t short forms, \u00XX for
// the other control bytes and for < > &, \ufffd for invalid UTF-8, and
// U+2028 / U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
