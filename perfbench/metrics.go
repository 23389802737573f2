package main

// metricDef declares one metric. BENCHMARK.json lists the same names and
// units (TestBenchmarkJSONMatchesTable keeps the two in step); this table
// additionally records, for each per-layer metric, which end-to-end
// metric it should move and on which workload, so later changes can cite
// both by name. BENCHMARK.json's schema has no field for that map.
type metricDef struct {
	name  string
	unit  string
	lower bool    // lower is better
	bound float64 // end-to-end only: allowed worsening, as a share of the parent's median
	// span, when set, derives a per-layer metric from the traced spans of
	// that name: their summed duration for unit "s", their mean duration
	// for unit "us". Other per-layer metrics are computed by the workload.
	span  string
	moves string
}

// endToEnd are the gated metrics. Every workload measures all of them; the
// work each one integrates differs by workload:
//
//   - setup_s: everything before the first replayed or served request.
//   - replay_s: the workload's trace replay. replay-matrix: the
//     post-attach replay of all 18 cells, one at a time; replay-scenarios:
//     the sharded replay of the 7 scenarios (warm-up included, as
//     sim.Run does it); serve: phase (a), the trace suffix's state events
//     and ticks applied live with Zipf reads between them (per write
//     section, the faster of two repetitions).
//   - search_qps: searches answered per second of search time, one
//     client, closed loop. Replays: searches over the summed duration of
//     the Search calls; serve: phase (b), in-process reads, from the
//     median of 15 blocks.
//   - search_p50_us: median ASAP search response time. Replays: the mean
//     over ASAP cells (scenarios) of each one's median Search call; serve:
//     phase (c), open loop, timed from each request's scheduled arrival,
//     as the median of 15 consecutive blocks' medians.
//   - heap_mb: live heap after a forced GC at the workload's high-water
//     point (the warm node, or the largest cell), read outside timing.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", lower: true, bound: 0.25},
	{name: "replay_s", unit: "s", lower: true, bound: 0.25},
	{name: "search_qps", unit: "1/s", lower: false, bound: 0.25},
	{name: "search_p50_us", unit: "us", lower: true, bound: 0.25},
	{name: "heap_mb", unit: "MB", lower: true, bound: 0.1},
}

// perLayer are the traced run's metrics. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	// experiments / netmodel / content / trace
	{name: "netmodel.generate_s", unit: "s", span: "netmodel.generate", moves: "setup_s on every workload"},
	{name: "content.generate_s", unit: "s", span: "content.generate", moves: "setup_s on every workload"},
	{name: "trace.build_s", unit: "s", span: "trace.build", moves: "setup_s on every workload"},

	// sim / overlay
	{name: "sim.topo_s", unit: "s", span: "sim.topo", moves: "setup_s on replay-matrix"},
	{name: "sim.clone_s", unit: "s", span: "sim.clone", moves: "setup_s on replay-matrix"},
	{name: "sim.events", unit: "count", moves: "replay_s on replay-matrix"},
	{name: "sim.events_per_s", unit: "1/s", moves: "replay_s on replay-matrix"},
	{name: "sim.finish_s", unit: "s", span: "sim.finish", moves: "replay_s on replay-matrix"},
	{name: "sim.sequential_s", unit: "s", moves: "replay_s on replay-scenarios (the unsharded reference)"},
	{name: "sim.sharded_s", unit: "s", moves: "replay_s on replay-scenarios"},
	{name: "sim.shard_speedup", unit: "x", moves: "replay_s on replay-scenarios"},

	// core
	{name: "core.attach_s", unit: "s", span: "core.attach", moves: "setup_s on replay-matrix"},
	{name: "core.replay_s", unit: "s", moves: "replay_s on replay-matrix (the 9 ASAP cells)"},
	{name: "core.state_s", unit: "s", span: "core.state", moves: "replay_s on replay-matrix (ASAP ad delivery on state events)"},
	{name: "core.search_s", unit: "s", span: "core.search", moves: "replay_s and search_p50_us on replay-matrix, a small share"},
	{name: "core.search_us", unit: "us", span: "core.search", moves: "search_p50_us on replay-matrix and replay-scenarios"},
	{name: "core.search_ro_us", unit: "us", moves: "search_qps and search_p50_us on serve"},
	{name: "core.success_rate", unit: "ratio", moves: "none: an exact output, fixed under a pure speed-up"},
	{name: "core.one_hop_rate", unit: "ratio", moves: "none: an exact output (share of successes the ads cache answers)"},
	{name: "core.warmup_mb", unit: "MB", moves: "none: an exact output (warm-up ad traffic)"},
	{name: "core.msgs.query", unit: "bytes", moves: "none: exact traffic count"},
	{name: "core.msgs.query-hit", unit: "bytes", moves: "none: exact traffic count"},
	{name: "core.msgs.confirm", unit: "bytes", moves: "none: exact traffic count"},
	{name: "core.msgs.ads-request", unit: "bytes", moves: "none: exact traffic count"},
	{name: "core.msgs.ad-full", unit: "bytes", moves: "none: exact traffic count"},
	{name: "core.msgs.ad-patch", unit: "bytes", moves: "none: exact traffic count"},
	{name: "core.msgs.ad-refresh", unit: "bytes", moves: "none: exact traffic count"},
	{name: "core.msgs.control", unit: "bytes", moves: "none: exact traffic count"},

	// search (the baselines)
	{name: "search.replay_s", unit: "s", moves: "replay_s on replay-matrix (the 9 baseline cells); no change elsewhere"},
	{name: "search.state_s", unit: "s", span: "search.state", moves: "replay_s on replay-matrix"},
	{name: "search.flooding_s", unit: "s", span: "search.flooding", moves: "replay_s and search_qps on replay-matrix"},
	{name: "search.random-walk_s", unit: "s", span: "search.random-walk", moves: "replay_s and search_qps on replay-matrix"},
	{name: "search.gsa_s", unit: "s", span: "search.gsa", moves: "replay_s and search_qps on replay-matrix"},
	{name: "search.search_us", unit: "us", moves: "search_qps on replay-matrix"},

	// faults / scenario
	{name: "scenario.build_s", unit: "s", span: "scenario.build", moves: "setup_s on replay-scenarios"},
	{name: "scenario.stage_s", unit: "s", span: "scenario.stage", moves: "setup_s on replay-scenarios"},
	{name: "scenario.churn-storm_s", unit: "s", span: "scenario.churn-storm", moves: "replay_s on replay-scenarios"},
	{name: "scenario.flash-crowd_s", unit: "s", span: "scenario.flash-crowd", moves: "replay_s on replay-scenarios"},
	{name: "scenario.free-riders_s", unit: "s", span: "scenario.free-riders", moves: "replay_s on replay-scenarios"},
	{name: "scenario.interest-drift_s", unit: "s", span: "scenario.interest-drift", moves: "replay_s on replay-scenarios"},
	{name: "scenario.partition-heal_s", unit: "s", span: "scenario.partition-heal", moves: "replay_s on replay-scenarios"},
	{name: "scenario.perfect-storm_s", unit: "s", span: "scenario.perfect-storm", moves: "replay_s on replay-scenarios"},
	{name: "scenario.rewire_s", unit: "s", span: "scenario.rewire", moves: "replay_s on replay-scenarios"},
	{name: "faults.drops", unit: "count", moves: "replay_s on replay-scenarios (exact count)"},
	{name: "faults.retries", unit: "count", moves: "replay_s on replay-scenarios (exact count)"},
	{name: "faults.timeouts", unit: "count", moves: "replay_s on replay-scenarios (exact count)"},

	// serve
	{name: "serve.warm_s", unit: "s", span: "serve.warm", moves: "setup_s on serve"},
	{name: "serve.apply_us", unit: "us", span: "serve.apply", moves: "replay_s on serve"},
	{name: "serve.tick_us", unit: "us", span: "serve.tick", moves: "replay_s on serve"},
	{name: "serve.search_us", unit: "us", moves: "search_qps and replay_s on serve"},
	{name: "serve.admit_us", unit: "us", moves: "search_qps on serve (admission, gate and stats)"},
	{name: "serve.lateness_us", unit: "us", moves: "qualifies search_p50_us on serve (median generator lateness)"},
	{name: "serve.p99_us", unit: "us", moves: "tail of search_p50_us on serve (not gated)"},
	{name: "serve.p99_n", unit: "count", moves: "samples beyond serve.p99_us"},
	{name: "serve.p999_us", unit: "us", moves: "tail of search_p50_us on serve (not gated)"},
	{name: "serve.p999_n", unit: "count", moves: "samples beyond serve.p999_us"},
	{name: "serve.hit_rate", unit: "ratio", moves: "none: answers with a verified source, out of served"},
	{name: "serve.served", unit: "count", moves: "none"},
	{name: "serve.shed", unit: "count", moves: "none"},
	{name: "serve.failed", unit: "count", moves: "none"},

	// transport
	{name: "transport.bin_qps", unit: "1/s", moves: "phase (d) of serve: closed-loop reads over loopback TCP"},
	{name: "transport.rtt_us", unit: "us", span: "transport.rtt", moves: "transport.bin_qps on serve"},
	{name: "transport.codec_us", unit: "us", moves: "transport.bin_qps on serve"},
	{name: "transport.share", unit: "ratio", moves: "transport.bin_qps on serve (1 - serve.search_us / transport.rtt_us)"},

	// the benchmark's own accounting
	{name: "bench.wall_s", unit: "s", moves: "the traced pass's wall time"},
	{name: "bench.unaccounted_s", unit: "s", moves: "wall time no top-level span covers"},
	{name: "bench.spans", unit: "count", moves: "spans recorded"},
	{name: "bench.trace_overhead_s", unit: "s", moves: "traced minus untraced replay_s"},
	{name: "bench.trace_overhead_pct", unit: "%", moves: "traced minus untraced replay_s, as a share of untraced"},
}

// spanLayers derives the span-backed per-layer metrics.
func spanLayers(spans []span) map[string]float64 {
	agg := byName(spans)
	out := map[string]float64{}
	for _, m := range perLayer {
		lt, ok := agg[m.span]
		if m.span == "" || !ok {
			continue
		}
		switch m.unit {
		case "s":
			out[m.name] = float64(lt.total) / 1e9
		case "us":
			out[m.name] = float64(lt.total) / 1e3 / float64(lt.count)
		}
	}
	return out
}
