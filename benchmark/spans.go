package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer's public functions: the program is not instrumented.
// A child span is therefore a separate replay of the same request one
// level further in, run right after its parent so that every depth of a
// request meets the same machine regime. Spans live in a preallocated
// buffer and are written out when the run ends.

type spanName uint8

const (
	spanLoadgenCall spanName = iota
	spanRoundtrip
	spanNullRoundtrip
	spanMiddleware
	spanHandler
	spanDecode
	spanResolve
	spanAdmit
	spanCoalesceDo
	spanDispatchDo
	spanDispatchDoNoRec
	spanObserve
	spanEncode
	spanRoundtripBatch
	spanMiddlewareBatch
	spanHandlerBatch
	spanDecodeBatch
	spanAdmitBatch
	spanDispatchBatch
	spanDispatchBatchNoRec
	spanEncodeBatch
	spanFrontRoundtrip
	spanProxy
	spanEmbeddedCall
	spanResolveContended
	spanCoalesceDoContended
	spanEmbeddedSolo
	spanCount
)

var spanNames = [spanCount]string{
	spanLoadgenCall:         "loadgen.call",
	spanRoundtrip:           "nethttp.roundtrip",
	spanNullRoundtrip:       "nethttp.null_roundtrip",
	spanMiddleware:          "server.middleware",
	spanHandler:             "server.handler",
	spanDecode:              "api.decode",
	spanResolve:             "tiers.resolve",
	spanAdmit:               "admit.admit",
	spanCoalesceDo:          "coalesce.do",
	spanDispatchDo:          "dispatch.do",
	spanDispatchDoNoRec:     "dispatch.do_norecorder",
	spanObserve:             "drift.observe",
	spanEncode:              "api.encode",
	spanRoundtripBatch:      "nethttp.roundtrip_batch",
	spanMiddlewareBatch:     "server.middleware_batch",
	spanHandlerBatch:        "server.handler_batch",
	spanDecodeBatch:         "api.decode_batch",
	spanAdmitBatch:          "admit.admitbatch",
	spanDispatchBatch:       "dispatch.dobatch",
	spanDispatchBatchNoRec:  "dispatch.dobatch_norecorder",
	spanEncodeBatch:         "api.encode_batch",
	spanFrontRoundtrip:      "fleet.front_roundtrip",
	spanProxy:               "fleet.proxy",
	spanEmbeddedCall:        "embedded.call",
	spanResolveContended:    "tiers.resolve_contended",
	spanCoalesceDoContended: "coalesce.do_contended",
	spanEmbeddedSolo:        "embedded.solo",
}

type spanRec struct {
	trace, id, parent uint32
	name              spanName
	start, end        int64 // ns since the buffer's base
}

// spanBuf is one goroutine's span buffer. Ids are unique across the
// buffers of a run because each buffer numbers from its own idBase.
type spanBuf struct {
	base   time.Time
	idBase uint32
	recs   []spanRec
}

func newSpanBuf(base time.Time, idBase uint32, capacity int) *spanBuf {
	return &spanBuf{base: base, idBase: idBase, recs: make([]spanRec, 0, capacity)}
}

// add records one finished span and returns its id (0 = no parent).
func (b *spanBuf) add(trace, parent uint32, name spanName, start, end time.Time) uint32 {
	id := b.idBase + uint32(len(b.recs)) + 1
	b.recs = append(b.recs, spanRec{trace, id, parent, name, start.Sub(b.base).Nanoseconds(), end.Sub(b.base).Nanoseconds()})
	return id
}

// clockReadNS calibrates what one span pays for reading the clock: the
// median distance between two back-to-back reads.
func clockReadNS() float64 {
	d := make([]float64, 2001)
	for i := range d {
		t0 := time.Now()
		t1 := time.Now()
		d[i] = float64(t1.Sub(t0))
	}
	return median(d)
}

// durations collects, per span name, the duration of each trace's span
// (one span per name per trace on the replay; every span on the
// contended phase), less one clock read.
type durations struct {
	byTrace [spanCount]map[uint32]float64
	all     [spanCount][]float64
}

func collect(bufs []*spanBuf, clock float64) *durations {
	d := &durations{}
	for i := range d.byTrace {
		d.byTrace[i] = map[uint32]float64{}
	}
	for _, b := range bufs {
		for _, r := range b.recs {
			v := float64(r.end-r.start) - clock
			if v < 0 {
				v = 0
			}
			d.byTrace[r.name][r.trace] = v
			d.all[r.name] = append(d.all[r.name], v)
		}
	}
	return d
}

// med is the median duration (ns) of the spans of one name.
func (d *durations) med(n spanName) float64 { return median(d.all[n]) }

func (d *durations) q(n spanName, q float64) float64 { return quantile(d.all[n], q) }

// self is the median over traces of the parent's duration minus its
// children's: the parent's self time. A trace missing any of the spans
// is skipped.
func (d *durations) self(parent spanName, children ...spanName) float64 {
	var out []float64
traces:
	for tr, pv := range d.byTrace[parent] {
		for _, c := range children {
			cv, ok := d.byTrace[c][tr]
			if !ok {
				continue traces
			}
			pv -= cv
		}
		out = append(out, pv)
	}
	return median(out)
}

// sum is the median over traces of the summed durations of the names.
func (d *durations) sum(names ...spanName) float64 {
	var out []float64
traces:
	for tr := range d.byTrace[names[0]] {
		v := 0.0
		for _, c := range names {
			cv, ok := d.byTrace[c][tr]
			if !ok {
				continue traces
			}
			v += cv
		}
		out = append(out, v)
	}
	return median(out)
}

// writeSpans writes one JSON line per span: trace, span, parent, name,
// start_ns, end_ns.
func writeSpans(dir, workload string, bufs []*spanBuf) (string, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	var all []spanRec
	for _, b := range bufs {
		all = append(all, b.recs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].start < all[j].start })
	w := bufio.NewWriterSize(f, 1<<20)
	line := make([]byte, 0, 160)
	for _, r := range all {
		line = append(line[:0], `{"trace":`...)
		line = strconv.AppendUint(line, uint64(r.trace), 10)
		line = append(line, `,"span":`...)
		line = strconv.AppendUint(line, uint64(r.id), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendUint(line, uint64(r.parent), 10)
		line = append(line, `,"name":"`...)
		line = append(line, spanNames[r.name]...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, r.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, r.end, 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return "", 0, fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", 0, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", 0, fmt.Errorf("writing %s: %w", path, err)
	}
	return path, len(all), nil
}
