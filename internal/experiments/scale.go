package experiments

import (
	"fmt"
	"strings"

	"asap/internal/content"
	"asap/internal/core"
	"asap/internal/netmodel"
	"asap/internal/trace"
)

// Scale bundles every configuration knob of one experiment size.
type Scale struct {
	Name    string
	Net     netmodel.Config
	Content content.Config
	Trace   trace.Config
	// Factor is the linear reduction relative to the paper's scale; ASAP's
	// size-coupled knobs shrink by it.
	Factor float64
	// RefreshPeriodSec overrides the ASAP refresh period (0 keeps the
	// core default scaled by Factor).
	RefreshPeriodSec int
	// Workers is the per-run query replay parallelism (0 = GOMAXPROCS):
	// above 1 the run replays on the sharded dispatcher with that many
	// shards, byte-identical to a sequential replay (see sim.RunOptions).
	// It applies to single-run entry points (Lab.Run, seed sweeps);
	// RunMatrix cells replay single-threaded and parallelise across cells.
	Workers int
	// MatrixWorkers bounds RunMatrix's scheme×topology fan-out (0 =
	// GOMAXPROCS). Runs are independent, so the worker count never
	// changes the Matrix (see TestRunMatrixParallelDeterminism).
	MatrixWorkers int
	// ShardCount selects the sharded replay engine for every run,
	// including matrix cells: the overlay splits into this many contiguous
	// node-range shards, each query batch replays as a parallel intra-shard
	// phase plus an ordered barrier drain, and outputs stay byte-identical
	// to the sequential replay at every count (see sim.RunOptions
	// and TestShardedReplayEquivalence). 0 keeps the unsharded path;
	// negative means auto (GOMAXPROCS, capped at overlay.MaxShards).
	ShardCount int
	// CacheCapacity, when positive, overrides the ASAP ads-cache capacity
	// the Factor scaling would pick. The mega preset needs this: per-node
	// cache slabs are the dominant term of peak heap at 500k nodes, so the
	// capacity must shrink far below the Scaled floor for memory to scale
	// with the shard, not the universe.
	CacheCapacity int
	// BudgetUnit, when positive, overrides ASAP's per-ad delivery budget B
	// the same way (delivery fan-out, and with it warm-up cost, scales
	// linearly in B).
	BudgetUnit int
	// LossRate attaches a fault plane dropping this fraction of messages
	// (0 = reliable network, the paper's model). Drops are a pure function
	// of the lab seed and each message's identity, so lossy runs stay as
	// deterministic as reliable ones (see internal/faults).
	LossRate float64
	Seed     uint64
}

// ScaleFull is the paper's configuration.
func ScaleFull() Scale {
	return Scale{
		Name:    "full",
		Net:     netmodel.DefaultConfig(),
		Content: content.DefaultConfig(),
		Trace:   trace.DefaultConfig(),
		Factor:  1,
		Seed:    1,
	}
}

// ScaleSmall is a 1/10 linear reduction: 1,000 peers, 3,000 requests over
// a proportionally smaller physical universe and content snapshot. The
// query rate (λ=8/s), content-change fraction and churn proportions are
// unchanged.
func ScaleSmall() Scale {
	s := ScaleFull()
	s.Name = "small"
	s.Net = netmodel.SmallConfig()
	s.Content = s.Content.Scaled(0.1)
	s.Trace = s.Trace.Scaled(0.1)
	s.Factor = 0.1
	// Scale the refresh period with the trace span so each node refreshes
	// as many times per run as at full scale.
	s.RefreshPeriodSec = 30
	return s
}

// ScaleTiny is a 1/25 reduction for unit tests and the quickstart example.
func ScaleTiny() Scale {
	s := ScaleFull()
	s.Name = "tiny"
	s.Net = netmodel.SmallConfig()
	s.Content = s.Content.Scaled(0.04)
	s.Trace = s.Trace.Scaled(0.04)
	s.Factor = 0.04
	s.RefreshPeriodSec = 12
	return s
}

// ScaleMega is the beyond-the-paper configuration: half a million peers on
// a physical universe sized to hold them, a proportionally larger Zipf
// content snapshot, and a scaled trace. It exists to exercise the sharded
// replay engine past the single-process comfort zone, so it runs one scheme
// (asap-rw on the random overlay) rather than the whole matrix, shards by
// default, and pins the two size-coupled ASAP knobs that would otherwise
// make peak heap scale with the universe instead of the shard.
func ScaleMega() Scale {
	s := ScaleFull()
	s.Name = "mega"
	// 24 transit domains × 25 routers, 21 stub domains per transit router ×
	// 42 nodes: 529,800 physical nodes, enough for every peer plus churn
	// joins to claim a distinct attachment point.
	s.Net = netmodel.Config{
		TransitDomains:        24,
		TransitPerDomain:      25,
		StubDomainsPerTransit: 21,
		StubPerDomain:         42,
		Seed:                  netmodel.DefaultConfig().Seed,
	}
	s.Content = content.DefaultConfig()
	s.Content.NumPeers = 520_000
	s.Content.NumDocs = 2_080_000
	s.Trace = trace.DefaultConfig()
	s.Trace.NumNodes = 500_000
	s.Trace.NumJoins = 5_000
	s.Trace.NumLeaves = 5_000
	s.Trace.NumQueries = 20_000
	s.Trace.Lambda = 50
	// Keep protocol knobs at paper scale (Factor 1) except the two that
	// multiply by the node count: a 500k-node universe at the default cache
	// capacity and budget would spend tens of GB on ads slabs alone.
	s.Factor = 1
	s.RefreshPeriodSec = 120
	s.CacheCapacity = 8
	s.BudgetUnit = 512
	s.ShardCount = -1 // auto: GOMAXPROCS
	return s
}

// presets is the single registry every name-keyed surface derives from:
// ByName, Names, and the CLI help strings all read this slice, so adding a
// preset is one entry here and nothing else.
var presets = []struct {
	name string
	make func() Scale
}{
	{"full", ScaleFull},
	{"small", ScaleSmall},
	{"tiny", ScaleTiny},
	{"mega", ScaleMega},
}

// Names lists the preset names in registry order.
func Names() []string {
	out := make([]string, len(presets))
	for i, p := range presets {
		out[i] = p.name
	}
	return out
}

// ByName resolves a preset name.
func ByName(name string) (Scale, error) {
	for _, p := range presets {
		if p.name == name {
			return p.make(), nil
		}
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (%s)", name, strings.Join(Names(), "|"))
}

// ASAPConfig derives the ASAP configuration for this scale and delivery
// kind.
func (s Scale) ASAPConfig(d core.DeliveryKind) core.Config {
	cfg := core.DefaultConfig(d).Scaled(s.Factor)
	cfg.Seed = s.Seed
	if s.RefreshPeriodSec > 0 {
		cfg.RefreshPeriodSec = s.RefreshPeriodSec
	}
	if s.CacheCapacity > 0 {
		cfg.CacheCapacity = s.CacheCapacity
	}
	if s.BudgetUnit > 0 {
		cfg.BudgetUnit = s.BudgetUnit
	}
	return cfg
}
