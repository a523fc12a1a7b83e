package main

import (
	"fmt"
	"math"
)

// metrics turns the traced pass's counters and spans into the per-layer
// rows, in the order of the spec. A row of a layer the workload does not
// cross reads 0.
func (t *tracedRun) metrics() ([]metricValue, error) {
	b, d := t.b, t.d
	wl := b.cfg.workload
	v := map[string]metricValue{}
	set := func(name string, value float64, note string) {
		if math.IsNaN(value) || math.IsInf(value, 0) {
			value = 0
		}
		v[name] = metricValue{name: name, value: value, note: note}
	}
	share := func(name string, num, den int64) {
		set(name, ratio(float64(num), float64(den)), fmt.Sprintf("%d of %d", num, den))
	}
	ns := func(name string, s spanName) { set(name, d.med(s), fmt.Sprintf("median of %d spans", len(d.all[s]))) }
	perItem := func(name string, s spanName, n float64) {
		set(name, d.med(s)/n, fmt.Sprintf("median of %d spans / %g items", len(d.all[s]), n))
	}

	// Set-up stages.
	set("profile.build_ms", ms(b.n.times.profile.Seconds()), "")
	set("rulegen.generate_ms", ms(b.n.times.rulegen.Seconds()), "")
	set("server.construct_ms", ms(b.n.times.construct.Seconds()), "NewWithConfig + Instrument")
	set("fleet.bootstrap_ms", ms(b.n.times.bootstrap.Seconds()), "two workers: snapshot pull, assembly, registration")
	set("fleet.snapshot_bytes", t.snapBytes, "")
	set("state.encode_ms", t.stateEncMS, "median of 5")
	set("state.decode_ms", t.stateDecMS, "median of 5")

	// Counter growth over the timed phases (closed, closed with spans, paced).
	c0, c1 := t.c0, t.c1
	dispatched := c1.disp.requests - c0.disp.requests
	share("dispatch.escalation_ratio", c1.disp.escalations-c0.disp.escalations, dispatched)
	share("dispatch.hedge_ratio", c1.disp.hedges-c0.disp.hedges, dispatched)
	set("dispatch.failures", float64(c1.disp.failures-c0.disp.failures), "")
	admitted := c1.adm.admitted - c0.adm.admitted
	arrivals := admitted + c1.adm.shed - c0.adm.shed
	share("admit.shed_ratio", c1.adm.shed-c0.adm.shed, arrivals)
	share("admit.downgrade_ratio", c1.adm.downgraded-c0.adm.downgraded, arrivals)
	byp, coa := c1.coal.bypassed-c0.coal.bypassed, c1.coal.coalesced-c0.coal.coalesced
	win := c1.coal.windows - c0.coal.windows
	share("coalesce.bypass_ratio", byp, byp+coa)
	set("coalesce.mean_window", ratio(float64(coa), float64(win)), fmt.Sprintf("%d requests in %d windows", coa, win))
	share("coalesce.size_flush_ratio", c1.coal.sizeFlushes-c0.coal.sizeFlushes, win)
	set("drift.events", float64(c1.events), "must be 0")
	share("trace.kept_ratio", c1.tr.committed-c0.tr.committed, c1.tr.dispatches-c0.tr.dispatches)
	if wl == wlFleetSingle {
		proxied := c1.fleet.proxied - c0.fleet.proxied
		fallback := c1.fleet.fallback - c0.fleet.fallback
		share("fleet.failover_ratio", c1.fleet.failedOver-c0.fleet.failedOver, proxied)
		share("fleet.fallback_ratio", fallback, proxied+fallback)
		var most int64
		for name, n := range c1.fleet.perWorker {
			if g := n - c0.fleet.perWorker[name]; g > most {
				most = g
			}
		}
		share("fleet.worker_max_share", most, proxied)
	}

	// The generator's own books.
	led := t.ledger()
	set("loadgen.sent", float64(led.sent), "calls over the timed phases")
	set("loadgen.completed", float64(led.ok), "")
	share("loadgen.fail_ratio", led.bad(), led.sent)
	if p := t.paced; p != nil {
		lat := p.allLat()
		if len(lat) < b.cfg.minTail() {
			return nil, fmt.Errorf("paced p99 would rest on %d samples, fewer than %d", len(lat), b.cfg.minTail())
		}
		n := fmt.Sprintf("%d calls at %g/s, timed from the intended send", len(lat), pacedRate[wl])
		set("loadgen.paced_p50_ms", durationsQuantile(lat, 0.5)/1e6, n)
		set("loadgen.paced_p99_ms", durationsQuantile(lat, 0.99)/1e6, n)
		set("loadgen.lateness_p99_ms", durationsQuantile(p.lateness, 0.99)/1e6, fmt.Sprintf("generator %.2f%% behind schedule", 100*p.behind))
		set("loadgen.cpu_share", ratio(t.nullCPUPerOp, t.cpuPerOpA),
			fmt.Sprintf("%.2f us/op against the canned-200 server / %.2f us/op against the node", t.nullCPUPerOp, t.cpuPerOpA))
	}

	// The process.
	set("proc.gc_pause_p99_us", pauseP99US(t.gc0, t.gc1), "")
	set("proc.gc_cpu_fraction", ratio(t.gc1.gcCPU-t.gc0.gcCPU, (t.gc1.cpu-t.gc0.cpu).Seconds()), "GC cpu-seconds / process cpu-seconds")
	peak := max(t.closedA.goroutinesPeak, t.closedB.goroutinesPeak)
	if t.paced != nil {
		peak = max(peak, t.paced.goroutinesPeak)
	}
	set("proc.goroutines_peak", float64(peak), "")

	// The closed loop's tail: merge the closed phases until the p99 has
	// enough samples behind it.
	tail := t.closedA.allLat()
	if len(tail) < b.cfg.minTail() {
		tail = append(tail, t.closedB.allLat()...)
	}
	if len(tail) < b.cfg.minTail() {
		return nil, fmt.Errorf("closed p99 would rest on %d samples, fewer than %d", len(tail), b.cfg.minTail())
	}
	set("tail.closed_p99_ms", durationsQuantile(tail, 0.99)/1e6, fmt.Sprintf("%d calls", len(tail)))
	measured := t.closedA.rps()
	set("spans.overhead_ratio", ratio(t.closedB.rps(), measured),
		fmt.Sprintf("%.0f rps with a span per call / %.0f rps without", t.closedB.rps(), measured))

	// Span medians of the replay.
	ns("tiers.resolve_ns", spanResolve)
	ns("drift.observe_ns", spanObserve)
	var root spanName // the span whose median predicts the closed loop
	perCall := 1.0
	switch wl {
	case wlDirectSingle, wlFleetSingle:
		ns("api.decode_ns", spanDecode)
		ns("api.encode_ns", spanEncode)
		set("api.decode_allocs", t.decodeAllocs, "objects per decode")
		ns("admit.admit_ns", spanAdmit)
		ns("dispatch.do_ns", spanDispatchDo)
		set("trace.recorder_overhead_ns", d.self(spanDispatchDo, spanDispatchDoNoRec), "Do with recorder - Do without, per request")
		ns("server.handler_ns", spanHandler)
		set("server.handler_allocs", t.hAllocs, "objects per call")
		set("server.handler_bytes", t.hBytes, "bytes per call")
		set("nethttp.roundtrip_us", d.med(spanRoundtrip)/1e3, fmt.Sprintf("median of %d spans", len(d.all[spanRoundtrip])))
		set("nethttp.null_roundtrip_us", d.med(spanNullRoundtrip)/1e3, "same issuer against the canned-200 server")
		leaves := []spanName{spanDecode, spanResolve, spanAdmit, spanDispatchDo, spanEncode}
		if wl == wlDirectSingle {
			root = spanRoundtrip
			leaves = []spanName{spanDecode, spanResolve, spanCoalesceDo, spanEncode}
			set("coalesce.bypass_overhead_ns", d.self(spanCoalesceDo, spanDispatchDo), "Coalescer.Do alone - Dispatcher.Do, per request")
			set("coalesce.do_p50_us", d.q(spanCoalesceDo, 0.5)/1e3, "replayed alone")
			set("coalesce.do_p99_us", d.q(spanCoalesceDo, 0.99)/1e3, "replayed alone")
			set("server.middleware_ns", d.self(spanMiddleware, spanHandler), "Instrument(h) - h, per request")
			set("nethttp.overhead_us", d.self(spanRoundtrip, spanMiddleware)/1e3, "round trip - Instrument(h), per request")
		} else {
			root = spanFrontRoundtrip
			set("server.middleware_ns", d.self(spanMiddleware, spanProxy), "front tier: Instrument(h) - Pool.Proxy, includes the handler's body read")
			set("nethttp.overhead_us", d.self(spanRoundtrip, spanHandler)/1e3, "round trip to the worker - its handler, per request")
			set("fleet.proxy_us", d.med(spanProxy)/1e3, "Pool.Proxy into a memory writer")
			set("fleet.hop_overhead_us", d.self(spanFrontRoundtrip, spanRoundtrip)/1e3, "round trip via the front tier - straight to the worker")
		}
		set("server.unattributed_ns", d.self(spanHandler, leaves...), "handler - staged layers, per request")
		set("spans.coverage", ratio(d.sum(leaves...), d.med(spanHandler)),
			fmt.Sprintf("%.0f ns staged / %.0f ns handler", d.sum(leaves...), d.med(spanHandler)))
	case wlDirectBatch:
		root, perCall = spanRoundtripBatch, batchSize
		perItem("api.decode_batch_ns_per_item", spanDecodeBatch, batchSize)
		perItem("api.encode_batch_ns_per_item", spanEncodeBatch, batchSize)
		perItem("admit.admitbatch_ns_per_item", spanAdmitBatch, batchSize)
		perItem("dispatch.dobatch_ns_per_item", spanDispatchBatch, batchSize)
		perItem("server.batch_handler_ns_per_item", spanHandlerBatch, batchSize)
		set("trace.recorder_overhead_ns", d.self(spanDispatchBatch, spanDispatchBatchNoRec)/batchSize, "DoBatch with recorder - without, per item")
		set("server.handler_allocs", t.hAllocs, "objects per batch call")
		set("server.handler_bytes", t.hBytes, "bytes per batch call")
		set("server.middleware_ns", d.self(spanMiddlewareBatch, spanHandlerBatch), "Instrument(h) - h, per call")
		leaves := []spanName{spanDecodeBatch, spanResolve, spanAdmitBatch, spanDispatchBatch, spanEncodeBatch}
		set("server.unattributed_ns", d.self(spanHandlerBatch, leaves...), "batch handler - staged layers, per call")
		set("nethttp.roundtrip_us", d.med(spanRoundtripBatch)/1e3, fmt.Sprintf("median of %d spans", len(d.all[spanRoundtripBatch])))
		set("nethttp.null_roundtrip_us", d.med(spanNullRoundtrip)/1e3, "same issuer against the canned-200 server")
		set("nethttp.overhead_us", d.self(spanRoundtripBatch, spanMiddlewareBatch)/1e3, "round trip - Instrument(h), per call")
		set("spans.coverage", ratio(d.sum(leaves...), d.med(spanHandlerBatch)),
			fmt.Sprintf("%.0f ns staged / %.0f ns handler", d.sum(leaves...), d.med(spanHandlerBatch)))
	case wlEmbedded:
		root = spanEmbeddedSolo
		ns("admit.admit_ns", spanAdmit)
		perItem("admit.admitbatch_ns_per_item", spanAdmitBatch, 8)
		ns("dispatch.do_ns", spanDispatchDo)
		perItem("dispatch.dobatch_ns_per_item", spanDispatchBatch, 8)
		set("trace.recorder_overhead_ns", d.self(spanDispatchDo, spanDispatchDoNoRec), "Do with recorder - Do without, per request")
		set("coalesce.bypass_overhead_ns", d.self(spanCoalesceDo, spanDispatchDo), "Coalescer.Do alone - Dispatcher.Do, per request")
		set("coalesce.do_p50_us", d.q(spanCoalesceDoContended, 0.5)/1e3, fmt.Sprintf("%d contended calls", len(d.all[spanCoalesceDoContended])))
		set("coalesce.do_p99_us", d.q(spanCoalesceDoContended, 0.99)/1e3, "")
		set("spans.coverage", ratio(d.sum(spanResolve, spanCoalesceDo), d.med(spanEmbeddedSolo)),
			fmt.Sprintf("%.0f ns staged / %.0f ns call", d.sum(spanResolve, spanCoalesceDo), d.med(spanEmbeddedSolo)))
	}

	// InferLine's check: does the profile of one request alone compose to
	// the closed loop's throughput? nproc senders each take one round trip
	// of CPU per call when generator and node share the cores.
	predicted := perCall * float64(b.mach.nproc) / (d.med(root) / 1e9)
	set("compose.predicted_rps", predicted, fmt.Sprintf("%g x %d / median %s %.1f us", perCall, b.mach.nproc, spanNames[root], d.med(root)/1e3))
	set("compose.error_ratio", ratio(math.Abs(predicted-measured), measured), fmt.Sprintf("|%.0f predicted - %.0f measured| / measured", predicted, measured))

	out := make([]metricValue, len(perLayer))
	for i, spec := range perLayer {
		m := v[spec.Name]
		m.name, m.unit = spec.Name, spec.Unit
		out[i] = m
		delete(v, spec.Name)
	}
	for name := range v {
		return nil, fmt.Errorf("metric %s is computed but not in the spec", name)
	}
	return out, nil
}

func ms(seconds float64) float64 { return seconds * 1e3 }
