package main

import "slices"

// layerMetrics fills the per-layer figures of a traced run. untraced and
// traced are its two paced phases; burst is the closed-loop phase (zero
// when the workload has none).
func layerMetrics(res *result, sp spec, untraced, traced *pacedPhase, burst burstResult,
	tr *tracer, rep *replayResult, pendingMax int64) {
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	lay := rep.layers

	set("subject.parse_ns", lay["subject.parse"].ns, "ns")
	set("subject.match_ns", lay["subject.match"].ns, "ns")
	set("wire.marshal_ns", lay["wire.marshal"].ns, "ns")
	set("wire.marshal_allocs", lay["wire.marshal"].allocs, "count")
	set("wire.unmarshal_ns", lay["wire.unmarshal"].ns, "ns")
	set("wire.unmarshal_allocs", lay["wire.unmarshal"].allocs, "count")
	set("wire.payload_bytes", rep.payloadBytes, "B")
	set("busproto.envelope_bytes", rep.envBytes, "B")
	set("busproto.encode_ns", lay["busproto.encode"].ns, "ns")
	set("busproto.decode_ns", lay["busproto.decode"].ns, "ns")
	set("busproto.peek_ns", lay["busproto.peek"].ns, "ns")
	set("reliable.publish_recv_ns", lay["reliable.publish_recv"].ns, "ns")
	set("daemon.publish_deliver_ns", lay["daemon.publish_deliver"].ns, "ns")
	set("router.inject_ns", lay["router.inject"].ns, "ns")
	set("ledger.append_sync_ns", lay["ledger.append_sync"].ns, "ns")
	set("bench.check_ns", lay["bench.check"].ns, "ns")

	// Protocol counts over the traced paced phase plus the burst, per
	// delivered message (bus events at the subscribers).
	c := make(map[string]int64)
	for k, v := range traced.counters {
		c[k] += v
	}
	for k, v := range burst.counters {
		c[k] += v
	}
	msgs := float64(c["bus.events"])
	if msgs == 0 {
		msgs = 1
	}
	per := func(n int64) float64 { return float64(n) / msgs }
	sends := traced.meter.Sends + traced.meter.Broadcasts + burst.meter.Sends + burst.meter.Broadcasts
	set("reliable.datagrams_per_msg", per(c["reliable.sent"]+c["reliable.retransmits"]+
		c["reliable.naks_sent"]+c["reliable.acks_sent"]), "count")
	set("reliable.naks_per_msg", per(c["reliable.naks_sent"]), "count")
	set("reliable.retransmits_per_msg", per(c["reliable.retransmits"]), "count")
	set("reliable.skipped", float64(c["reliable.skipped"]), "count")
	set("transport.sends_per_msg", per(int64(sends)), "count")
	set("transport.send_errors", float64(traced.meter.SendErrors+burst.meter.SendErrors), "count")
	set("transport.oversize", float64(traced.meter.Oversize+burst.meter.Oversize), "count")
	set("router.suppressed_per_msg", per(c["router.suppressed"]), "count")
	fast := 0.0
	if fwd := c["router.forwarded"]; fwd > 0 {
		fast = float64(c["router.fastpath_forwarded"]) / float64(fwd)
	}
	set("router.fast_share", fast, "ratio")
	set("ledger.fsyncs_per_msg", per(c["ledger.fsyncs"]), "count")
	perCommit := 0.0
	if commits := c["ledger.commits"]; commits > 0 {
		perCommit = float64(c["ledger.appends"]) / float64(commits)
	}
	set("ledger.records_per_commit", perCommit, "count")
	set("daemon.pending_max", float64(pendingMax), "count")

	sendNs := append(tr.durations(spanBroadcast), tr.durations(spanSend)...)
	slices.Sort(sendNs)
	set("transport.send_ns", pct(sendNs, 50), "ns")
	set("core.publish_ns", pct(tr.durations(spanPublish), 50), "ns")
	set("core.transit_ns", pct(tr.durations(spanTransit), 50), "ns")

	// The untraced paced phase gives the CPU the layers are charged
	// against; the traced one, measured the same way, the tracing overhead.
	d := float64(untraced.deliveries)
	uc := untraced.counters
	pubs := float64(untraced.seqs) * float64(sp.feeds)
	inbound := float64(uc["daemon.inbound"])
	cpuPerMsg := untraced.cpu * 1e6 / d
	charged := lay["wire.marshal"].cpuNs*pubs +
		lay["busproto.encode"].cpuNs*pubs +
		lay["subject.parse"].cpuNs*(pubs+inbound) +
		lay["subject.match"].cpuNs*inbound +
		lay["busproto.decode"].cpuNs*inbound +
		lay["wire.unmarshal"].cpuNs*float64(uc["bus.events"]) +
		lay["busproto.peek"].cpuNs*float64(uc["router.forwarded"]+uc["router.suppressed"]) +
		pct(sendNs, 50)*float64(untraced.meter.Sends+untraced.meter.Broadcasts) +
		lay["ledger.append_sync"].cpuNs*float64(uc["ledger.appends"]) +
		lay["bench.generate"].cpuNs*pubs +
		lay["bench.check"].cpuNs*d
	set("unattributed_us_per_msg", cpuPerMsg-charged/1e3/d, "us")
	set("runtime.gc_cycles_per_kmsg", float64(untraced.gcs)*1000/d, "count")
	set("generator.late_p99_us", pct(untraced.late, 99)/1e3, "us")
	// Time figures of the untraced paced phase: they follow the host's
	// CPU steal too closely to carry a bound (README), so they are
	// reported here, beside the generator's lateness.
	set("publish_p50_us", pct(untraced.pubNs, 50)/1e3, "us")
	set("cpu_us_per_msg", median(untraced.cpuPerMsg[:]), "us")
	set("latency_p50_us", untraced.latency(50)/1e3, "us")
	set("latency_p90_us", untraced.latency(90)/1e3, "us")
	set("latency_p99_us", untraced.latency(99)/1e3, "us")
	set("trace.overhead_us_per_msg", traced.cpu*1e6/float64(traced.deliveries)-cpuPerMsg, "us")
}
