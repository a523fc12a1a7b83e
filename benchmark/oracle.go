package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// oracle holds the answer to every distinct (class, request), taken
// once before timing. Every timed response is compared with it field
// for field: byte for byte on the wire workloads (the JSON of an answer
// is deterministic, so equal bytes are equal fields, including fields a
// later change adds), struct field by struct field on the embedded one.
type oracle struct {
	mix    []mixClass
	corpus int
	raw    [][]byte  // wire workloads: the answer's JSON, newline trimmed
	out    []Outcome // embedded workload
	svc    []answerSvc
}

// answerSvc is what an answer contributes to the service-level metrics.
type answerSvc struct{ latencyMS, costUSD, taskErr float64 }

func (o *oracle) key(class uint8, idx int32) int { return int(class)*o.corpus + int(idx) }

// firstResponse ends a set-up: it issues a fixed probe (the class with a
// deadline, corpus request 0, tenant t0) and verifies the answer, against
// the oracle when there is one, against the answer invariants otherwise.
func firstResponse(n *node, o *oracle) error {
	mix := consumerMix()
	if n.emb != nil {
		out, t, err := embeddedCall(n.emb, n.reqs[0], mix[deadlineClass], tenantNames[0], budgetOf(deadlineClass))
		if err != nil {
			return fmt.Errorf("first call: %w", err)
		}
		if o != nil && !sameOutcome(&out, &o.out[o.key(deadlineClass, 0)]) {
			return errors.New("first call: outcome differs from the oracle")
		}
		_, err = checkOutcome(&out, t, mix[deadlineClass].tolerance)
		return err
	}
	conn, err := dialWire(n.front.addr)
	if err != nil {
		return err
	}
	defer conn.close()
	probe := wireRequest(pathDispatch, mix[deadlineClass], tenantNames[0], encodeBody(n.reqs, []int32{0}, true, false))
	status, hdr, body, err := conn.roundTrip(probe)
	if err != nil {
		return fmt.Errorf("first response: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("first response: status %d: %s", status, bytes.TrimSpace(body))
	}
	if n.workload == wlFleetSingle && hdr.Get(workerHeader) == "" {
		return fmt.Errorf("first response: no %s header: the front tier served it locally", workerHeader)
	}
	if o != nil {
		if !bytes.Equal(bytes.TrimSpace(body), o.raw[o.key(deadlineClass, 0)]) {
			return errors.New("first response differs from the oracle")
		}
		return nil
	}
	var res WireResult
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("first response: %w", err)
	}
	_, err = checkWire(&res, mix[deadlineClass].tolerance)
	return err
}

// embeddedCall is one embedded_contended operation: resolve, build the
// ticket, dispatch through the coalescer.
func embeddedCall(e *embeddedParts, req *Request, class mixClass, tenant string, budget time.Duration) (Outcome, Ticket, error) {
	rule, err := resolve(e.reg, class.tolerance, class.objective)
	if err != nil {
		return Outcome{}, Ticket{}, err
	}
	t := ticketFor(rule, class.objective, tenant, budget)
	out, err := coalesceDo(e.coal, context.Background(), req, t)
	return out, t, err
}

// buildOracle dispatches every distinct (class, request) once through
// the node, checks each answer's invariants and grades it.
func buildOracle(n *node) (*oracle, error) {
	o := &oracle{mix: consumerMix(), corpus: len(n.reqs)}
	o.svc = make([]answerSvc, len(o.mix)*o.corpus)
	record := func(k int, req *Request, a answer) error {
		e, err := grade(n.svc, req, a.backend)
		if err != nil {
			return err
		}
		o.svc[k] = answerSvc{a.latencyMS, a.costUSD, e}
		return nil
	}
	if n.emb != nil {
		o.out = make([]Outcome, len(o.svc))
		ref := newReferenceDispatcher(n.matrix, nil)
		for ci, class := range o.mix {
			rule, err := resolve(n.reg, class.tolerance, class.objective)
			if err != nil {
				return nil, err
			}
			t := ticketFor(rule, class.objective, "", budgetOf(uint8(ci)))
			for i, req := range n.reqs {
				out, err := dispatchDo(ref, context.Background(), req, t)
				if err != nil {
					return nil, fmt.Errorf("oracle: class %d request %d: %w", ci, req.ID, err)
				}
				a, err := checkOutcome(&out, t, class.tolerance)
				if err != nil {
					return nil, fmt.Errorf("oracle: class %d request %d: %w", ci, req.ID, err)
				}
				k := o.key(uint8(ci), int32(i))
				o.out[k] = out
				if err := record(k, req, a); err != nil {
					return nil, err
				}
			}
		}
		return o, nil
	}

	o.raw = make([][]byte, len(o.svc))
	conn, err := dialWire(n.front.addr)
	if err != nil {
		return nil, err
	}
	defer conn.close()
	for ci, class := range o.mix {
		for i, req := range n.reqs {
			body := encodeBody(n.reqs, []int32{int32(i)}, ci == deadlineClass, false)
			status, _, resp, err := conn.roundTrip(wireRequest(pathDispatch, class, tenantNames[i%tenants], body))
			if err != nil {
				return nil, fmt.Errorf("oracle: class %d request %d: %w", ci, req.ID, err)
			}
			if status != http.StatusOK {
				return nil, fmt.Errorf("oracle: class %d request %d: status %d: %s", ci, req.ID, status, bytes.TrimSpace(resp))
			}
			var res WireResult
			if err := json.Unmarshal(resp, &res); err != nil {
				return nil, fmt.Errorf("oracle: class %d request %d: %w", ci, req.ID, err)
			}
			a, err := checkWire(&res, class.tolerance)
			if err != nil {
				return nil, fmt.Errorf("oracle: class %d request %d: %w", ci, req.ID, err)
			}
			k := o.key(uint8(ci), int32(i))
			o.raw[k] = bytes.Clone(bytes.TrimSpace(resp))
			if err := record(k, req, a); err != nil {
				return nil, err
			}
		}
	}
	return o, nil
}

// annotate stores each call's service-level sums, so the timed loop adds
// three floats per verified call.
func (o *oracle) annotate(st *stream) {
	for i := range st.calls {
		c := &st.calls[i]
		c.svcLat, c.svcCost, c.svcErr = 0, 0, 0
		for _, idx := range st.idsOf(c) {
			s := o.svc[o.key(c.class, idx)]
			c.svcLat += s.latencyMS
			c.svcCost += s.costUSD
			c.svcErr += s.taskErr
		}
	}
}

// verdict classifies one timed call.
type verdict uint8

const (
	vOK         verdict = iota
	vMismatched         // answered, but not with the oracle's answer
	vRefused            // 429 / 503: an admission shed
	vFailed             // transport error or any other status
)

// matchWire verifies one wire response against the oracle.
func (o *oracle) matchWire(st *stream, c *call, status int, hdr http.Header, body []byte, err error, wantWorker bool) verdict {
	switch {
	case err != nil:
		return vFailed
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return vRefused
	case status != http.StatusOK:
		return vFailed
	case wantWorker && hdr.Get(workerHeader) == "":
		return vMismatched
	}
	ids := st.idsOf(c)
	if !st.batch {
		if bytes.Equal(bytes.TrimSpace(body), o.raw[o.key(c.class, ids[0])]) {
			return vOK
		}
		return vMismatched
	}
	// A batch answer: the items array holds each answer's JSON in request
	// order. Walk it without decoding.
	rest := body[bytes.IndexByte(body, '[')+1:]
	for i, idx := range ids {
		want := o.raw[o.key(c.class, idx)]
		if !bytes.HasPrefix(rest, want) {
			return vMismatched
		}
		rest = rest[len(want):]
		sep := byte(',')
		if i == len(ids)-1 {
			sep = ']'
		}
		if len(rest) == 0 || rest[0] != sep {
			return vMismatched
		}
		rest = rest[1:]
	}
	return vOK
}

// explainBatch decodes a batch answer the fast walk rejected and names
// the first differing item, for the failure message.
func (o *oracle) explainBatch(st *stream, c *call, body []byte) string {
	var got struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return "undecodable batch answer: " + err.Error()
	}
	ids := st.idsOf(c)
	if len(got.Items) != len(ids) {
		return fmt.Sprintf("%d items answered for %d ids", len(got.Items), len(ids))
	}
	for i, idx := range ids {
		if want := o.raw[o.key(c.class, idx)]; !bytes.Equal(got.Items[i], want) {
			return fmt.Sprintf("item %d: got %s want %s", i, got.Items[i], want)
		}
	}
	return "items equal but the envelope was not understood"
}

// ledger counts calls by verdict and the corpus requests behind them.
type ledger struct {
	sent, ok, mismatched, refused, failed int64 // calls
	okItems, mismatchedItems              int64 // corpus requests
}

func (l *ledger) add(o ledger) {
	l.sent += o.sent
	l.ok += o.ok
	l.mismatched += o.mismatched
	l.refused += o.refused
	l.failed += o.failed
	l.okItems += o.okItems
	l.mismatchedItems += o.mismatchedItems
}

func (l *ledger) count(v verdict, items int64) {
	switch v {
	case vOK:
		l.ok++
		l.okItems += items
	case vMismatched:
		l.mismatched++
		l.mismatchedItems += items
	case vRefused:
		l.refused++
	default:
		l.failed++
	}
}

// bad is the number of calls that count against the run.
func (l ledger) bad() int64 { return l.mismatched + l.refused + l.failed }

// balance checks the books: every call sent has exactly one verdict, and
// the dispatchers of the node counted exactly the requests that were
// answered.
func (l ledger) balance(dispatched int64) error {
	if l.sent != l.ok+l.mismatched+l.refused+l.failed {
		return fmt.Errorf("ledger: sent %d != ok %d + mismatched %d + refused %d + failed %d",
			l.sent, l.ok, l.mismatched, l.refused, l.failed)
	}
	if answered := l.okItems + l.mismatchedItems; dispatched != answered {
		return fmt.Errorf("ledger: the node's dispatchers counted %d requests, the generator had %d answered", dispatched, answered)
	}
	return nil
}

// dispatched sums Dispatcher.Snapshot().Requests over the node.
func (n *node) dispatched() int64 {
	var sum int64
	for _, d := range n.dispatchers() {
		sum += readDispatch(d).requests
	}
	return sum
}
