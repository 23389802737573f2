// Package sim is the trace-driven simulator of §IV: it owns the dynamic
// system state (who is live, who shares what), replays a trace against a
// pluggable search Scheme, and produces the metrics of §V.
//
// # Fidelity model
//
// The paper ignores queuing delay and Bloom-filter computation when
// calculating response times (§V-A): a message's delivery time is the sum
// of physical link latencies on its path and nothing else. A consequence
// this package exploits heavily is that concurrently outstanding searches
// do not interact — each query's message cascade can be simulated
// independently, given a fixed snapshot of system state.
//
// The runner therefore replays the trace as an alternation of
//
//   - state events (content changes, joins, departures), applied
//     sequentially in trace order, and
//   - query batches — maximal runs of consecutive Query events — replayed
//     sequentially or, with more than one worker, across the sharded
//     dispatcher's lanes (shard.go), which run in parallel only queries
//     proven to commute. Schemes may only touch shared state from Search
//     through synchronised or atomic paths (ASAP's per-node ad caches are
//     individually locked; load accounting is atomic).
//
// The replay is fully deterministic at every worker and shard count.
//
// # Message size model
//
// The paper reports bandwidth, not packet traces, so sizes are a fixed
// per-type model (sizes.go): an 80-byte header approximating IP+TCP+
// protocol framing, plus type-specific payloads — 4 bytes per query term,
// Bloom-filter wire bytes for full ads, changed-bit lists for patch ads,
// and a bare header for refresh ads. Full ads dwarf queries (≈1.5 KB vs
// ≈0.1 KB), exactly the relationship Fig. 7's discussion relies on.
package sim
