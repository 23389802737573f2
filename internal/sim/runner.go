package sim

import (
	"runtime"

	"asap/internal/content"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/trace"
)

// Scheme is a pluggable search algorithm under test: the three baselines
// and the three ASAP variants all implement it.
//
// Attach is called once before replay and may pre-distribute state (ASAP's
// warm-up ad delivery). Search must be safe for concurrent calls — the
// sharded dispatcher runs the lanes of a query batch in parallel; all
// other methods are called from the runner thread (never concurrently).
type Scheme interface {
	// Name returns the scheme label used in figures (e.g. "flooding",
	// "asap-rw").
	Name() string
	// Attach binds the scheme to a system and performs warm-up work.
	Attach(sys *System)
	// Search executes one query event and returns its outcome.
	Search(ev *trace.Event) metrics.SearchResult
	// ContentChanged notifies that node n added (or removed) document d at
	// time t; the system state is already updated.
	ContentChanged(t Clock, n overlay.NodeID, d content.DocID, added bool)
	// NodeJoined notifies that n has joined and been wired.
	NodeJoined(t Clock, n overlay.NodeID)
	// NodeLeft notifies that n has left ungracefully.
	NodeLeft(t Clock, n overlay.NodeID)
	// Tick fires once per virtual second, for periodic work (refresh ads).
	Tick(t Clock)
	// LoadMask selects which message classes count toward this scheme's
	// system load (§V-B counts query messages for baselines, everything
	// for ASAP).
	LoadMask() metrics.ClassMask
}

// GracefulLeaver is an optional Scheme extension. When a scheme
// implements it, the runner announces every Leave event before the
// overlay detaches the node — while its links are still intact — so the
// scheme can send goodbye traffic. Schemes gate the actual goodbye on the
// fault plane's graceful-leave mode; without it the hook must be a no-op
// (departures stay ungraceful, the paper's model).
type GracefulLeaver interface {
	NodeLeaving(t Clock, n overlay.NodeID)
}

// ContentBatcher is an optional Scheme extension. When a scheme implements
// it, the runner coalesces each run of consecutive same-node, same-second
// ContentAdd/ContentRemove events into one ContentChangedBatch call (system
// state for the whole run is already applied; t is the run's last event
// time) instead of per-event ContentChanged calls. Coalescing never spans a
// query, tick boundary, or any other event, so no observer can distinguish
// the intermediate states — the scheme is free to advertise the run's net
// effect once.
type ContentBatcher interface {
	ContentChangedBatch(t Clock, n overlay.NodeID, docs []content.DocID, added []bool)
}

// RunOptions tunes the replay. Every setting replays byte-identically to
// the sequential replay (Workers=1, Shards=0): parallelism only changes
// how fast the same answer arrives.
type RunOptions struct {
	// Workers is the query-batch parallelism; 0 means GOMAXPROCS. Workers=1
	// replays sequentially; Workers > 1 runs query batches on the sharded
	// dispatcher with Shards = Workers (Shards, when set, takes
	// precedence). A scheme that implements neither SearchSharder nor
	// PureSearcher replays sequentially at any setting.
	Workers int
	// MaxBatch caps how many consecutive queries are fanned out at once;
	// 0 means unlimited (a batch ends at the next state event).
	MaxBatch int
	// Shards selects the sharded replay engine (see shard.go): the node ID
	// space splits into Shards contiguous ranges, query batches replay as a
	// parallel intra-shard phase plus an ordered epoch-barrier drain, and
	// the output stays byte-identical to the sequential replay at every
	// shard count (including 1). 0 defers to Workers; negative means auto
	// (GOMAXPROCS, capped at overlay.MaxShards).
	Shards int
}

// Run replays the system's trace against the scheme and summarises the
// paper's metrics for it. The sequential stepping core lives in Stepper
// (stepper.go); Run layers the sharded dispatcher on top when parallelism
// is asked for, and stays byte-identical to driving the Stepper alone.
func Run(sys *System, sch Scheme, opts RunOptions) metrics.Summary {
	shards := opts.Shards
	if shards < 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards == 0 {
		if shards = opts.Workers; shards <= 0 {
			shards = runtime.GOMAXPROCS(0)
		}
		if shards == 1 {
			shards = 0
		}
	}
	var dispatcher *shardDispatcher
	if shards != 0 {
		dispatcher = newShardDispatcher(sch, sys.NumNodes(), shards)
	}

	st := NewStepper(sys, sch, opts.MaxBatch)
	rec := sys.Obs()
	for batch := st.NextBatch(); batch != nil; batch = st.NextBatch() {
		if dispatcher != nil {
			dispatcher.runBatch(batch, st.stats, rec)
			continue
		}
		for _, ev := range batch {
			r := sch.Search(ev)
			st.stats.Record(r)
			rec.Search(ev.Time, r.Success, r.ResponseMS, r.Bytes)
		}
	}
	return st.Finish()
}
