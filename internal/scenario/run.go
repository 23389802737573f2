package scenario

import (
	"fmt"

	"asap/internal/experiments"
	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/sim"
)

// Options tunes one scenario replay. The zero value replays sequentially.
type Options struct {
	// Workers is the query replay parallelism (0 = 1, sequential); above
	// 1 the replay runs sharded with Shards = Workers. Outputs are
	// byte-identical at every count. A nonzero Shards takes precedence.
	Workers int
	// Shards partitions the overlay for the parallel sharded replay
	// engine; outputs are byte-identical at every count.
	Shards int
}

// Result is one scenario replay's outputs: the paper summary plus the
// per-second observability series (the golden-replay hash input).
type Result struct {
	Scenario Scenario
	Summary  metrics.Summary
	Series   obs.RunSeries
}

// Build resolves the scenario's lab and stages its acts onto the lab's
// trace. The returned lab's trace is the merged sequence; LossRate is
// forced to 0 on the scale because the staged Install owns the plane.
func Build(sn Scenario) (*experiments.Lab, *Staged, error) {
	sc, err := sn.scale()
	if err != nil {
		return nil, nil, err
	}
	sc.LossRate = 0 // Install owns the fault plane
	lab, err := experiments.NewLab(sc)
	if err != nil {
		return nil, nil, err
	}
	st, err := Stage(sn, lab)
	if err != nil {
		return nil, nil, err
	}
	return lab, st, nil
}

// Run replays one scenario end to end and returns its summary and series.
func Run(sn Scenario, opt Options) (*Result, error) {
	lab, st, err := Build(sn)
	if err != nil {
		return nil, err
	}
	kind, err := topoKind(sn.Topo)
	if err != nil {
		return nil, err
	}
	sch, err := lab.NewScheme(sn.Scheme)
	if err != nil {
		return nil, err
	}
	sys := sim.NewSystem(lab.U, lab.Tr, kind, lab.Net, sn.Seed)
	rec := obs.NewRecorder(int(lab.Tr.Span()/1000) + 2)
	sys.SetObs(rec)
	st.Install(sys, sn.Seed, sn.Loss)
	workers := opt.Workers
	if workers == 0 {
		workers = 1
	}
	sum := sim.Run(sys, sch, sim.RunOptions{Workers: workers, Shards: opt.Shards})
	key := fmt.Sprintf("%s/%s/%s", sn.Name, sum.Scheme, sum.Topology)
	return &Result{Scenario: sn, Summary: sum, Series: rec.Series(key, sys.Load)}, nil
}
