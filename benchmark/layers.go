package main

// perLayerDefs lists every per-layer metric, layer = module name. The ones
// marked "probe" come from probe.go; the rest from the traced round (spans
// and counts taken at the wrapped seams, Stats() deltas over the two measured
// phases). README.md says which end-to-end metric each should move.
var perLayerDefs = []metricDef{
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.rate_frac", "ratio"},
	{"frontier.submit_us", "us"},
	{"frontier.spill_per_kreq", "1/kreq"},
	{"frontier.steal_per_kreq", "1/kreq"},
	{"gateway.batch_size_mean", "req"},
	{"gateway.wait_us_per_req", "us"},
	{"gateway.echo_rps", "1/s"},              // probe
	{"gateway.echo_allocs_per_req", "count"}, // probe
	{"serverless.overhead_us_per_invoke", "us"},
	{"serverless.warm_hit_frac", "ratio"},
	{"serverless.cold_starts", "count"},
	{"serverless.evictions", "count"},
	{"serverless.echo_invoke_us", "us"}, // probe
	{"semirt.invoke_us_per_req", "us"},
	{"semirt.wire_us_per_req", "us"},      // probe
	{"semirt.wire_bytes_ratio", "ratio"},  // probe
	{"semirt.handle_hot_us", "us"},        // probe
	{"semirt.handle_hot_allocs", "count"}, // probe
	{"semirt.hot_frac", "ratio"},
	{"semirt.warm_frac", "ratio"},
	{"semirt.key_fetch_per_kreq", "1/kreq"},
	{"keyservice.provision_us", "us"},
	{"keyservice.conns", "count"},
	{"ratls.handshake_us", "us"},               // probe
	{"ratls.handshake_allocs", "count"},        // probe
	{"ratls.record_us", "us"},                  // probe
	{"attest.quote_verify_us", "us"},           // probe
	{"enclave.launch_us", "us"},                // probe
	{"enclave.ecall_ns", "ns"},                 // probe
	{"secure.seal_open_req_us", "us"},          // probe
	{"secure.open_model_ms", "ms"},             // probe
	{"secure.open_model_alloc_ratio", "ratio"}, // probe
	{"storage.get_per_kreq", "1/kreq"},
	{"storage.get_mb", "MiB"},
	{"model.unmarshal_ms", "ms"},        // probe
	{"inference.exec_us", "us"},         // probe
	{"inference.runtime_init_us", "us"}, // probe
	{"tensor.conv3x3_ms", "ms"},         // probe
	{"tensor.share", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// tracedLayers derives the span- and count-based per-layer metrics. ref is
// the untraced reference round, tr the traced one recorded by t.
//
// Latency-side metrics (gateway.wait_us_per_req) come from the open phase,
// whose arrivals do not depend on service speed; cost-side metrics (submit,
// batch size, invoke spans) from the sat phase, where throughput_rps and
// cpu_us_per_req are measured.
func tracedLayers(sp *spec, t *tracer, ref, tr round, open, sat phaseTrace) map[string]float64 {
	d := func(after, before uint64) float64 { return float64(after - before) }
	a, b := tr.after, tr.before
	ops := float64(tr.open.ops + tr.sat.ops)
	kreq := ops / 1000
	served := d(a.semirt.Cold+a.semirt.Warm+a.semirt.Hot, b.semirt.Cold+b.semirt.Warm+b.semirt.Hot)
	coldStarts := d(a.cluster.ColdStarts, b.cluster.ColdStarts)
	return map[string]float64{
		"loadgen.late_p99_ms": quantile(ref.open.lateMs, 0.99),
		"loadgen.rate_frac":   rateFrac(sp, ref),

		"frontier.submit_us":      ratio(float64(sat.submitNs)/1e3, float64(sat.requests)),
		"frontier.spill_per_kreq": ratio(d(a.front.Spills, b.front.Spills), kreq),
		"frontier.steal_per_kreq": ratio(d(a.front.Steals, b.front.Steals), kreq),

		"gateway.batch_size_mean": sat.batchMean(),
		"gateway.wait_us_per_req": ratio((float64(open.latencyNs)-open.memberNs())/1e3, float64(open.requests)),

		"serverless.overhead_us_per_invoke": ratio(float64(sat.clusterNs-sat.semirtNs)/1e3, float64(sat.activations)),
		"serverless.warm_hit_frac":          1 - ratio(coldStarts, d(a.cluster.Invocations, b.cluster.Invocations)),
		"serverless.cold_starts":            coldStarts,
		"serverless.evictions":              d(a.cluster.Evictions, b.cluster.Evictions),

		"semirt.invoke_us_per_req":  ratio(float64(sat.semirtNs)/1e3, sat.batchMean()*float64(sat.activations)),
		"semirt.hot_frac":           ratio(d(a.semirt.Hot, b.semirt.Hot), served),
		"semirt.warm_frac":          ratio(d(a.semirt.Warm, b.semirt.Warm), served),
		"semirt.key_fetch_per_kreq": ratio(d(a.semirt.KeyFetches, b.semirt.KeyFetches), kreq),

		"keyservice.provision_us": ratio(float64(open.provisionNs+sat.provisionNs)/1e3, float64(open.provisions+sat.provisions)),
		"keyservice.conns":        float64(t.ksConns.Load()),

		"storage.get_per_kreq": ratio(float64(t.storageGets.Load()), kreq),
		"storage.get_mb":       float64(t.storageBytes.Load()) / (1 << 20),

		"trace.overhead_frac": 1 - ratio(tr.endToEnd()["throughput_rps"], ref.endToEnd()["throughput_rps"]),
	}
}

// rateFrac is the achieved share of the open loop's target arrival rate; a
// closed-loop workload has no target and reports 1.
func rateFrac(sp *spec, ref round) float64 {
	if sp.openRate == 0 {
		return 1
	}
	return ref.open.rate / sp.openRate
}
