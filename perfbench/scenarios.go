package main

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"

	"asap/internal/experiments"
	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/scenario"
	"asap/internal/sim"
)

// scenarioLoss is the message loss every scenario runs at, so all seven
// take the fault plane's lossy slow paths (retries, timeouts, silent
// walkers).
const scenarioLoss = 0.02

// benchScenario is a built-in scenario re-targeted to the small preset at
// scenarioLoss, seeded from the workload seed.
func benchScenario(name string, seed uint64) (scenario.Scenario, error) {
	sn, err := scenario.ByName(name)
	if err != nil {
		return sn, err
	}
	sn.Scale = "small"
	sn.Loss = scenarioLoss
	sn.Seed = seed
	return sn, nil
}

// buildScenario is scenario.Build with the lab generators in their own
// spans: resolve the preset, build the lab, stage the acts onto its trace.
func buildScenario(sn scenario.Scenario, t *tracer) (*experiments.Lab, *scenario.Staged, error) {
	s := t.begin("scenario.build")
	defer t.end(s)
	sc, err := experiments.ByName(sn.Scale)
	if err != nil {
		return nil, nil, err
	}
	sc.Seed = sn.Seed
	sc.LossRate = 0 // Install owns the fault plane
	lab, err := buildLab(sc, t)
	if err != nil {
		return nil, nil, err
	}
	ss := t.begin("scenario.stage")
	st, err := scenario.Stage(sn, lab)
	t.end(ss)
	if err != nil {
		return nil, nil, err
	}
	return lab, st, nil
}

// scenarioSystem builds a fresh system for one replay of the staged
// scenario, wired the way scenario.Run wires it.
func scenarioSystem(lab *experiments.Lab, st *scenario.Staged, sn scenario.Scenario, t *tracer) (*sim.System, sim.Scheme, error) {
	s := t.begin("scenario.system")
	defer t.end(s)
	kind, err := overlay.KindByName(sn.Topo)
	if err != nil {
		return nil, nil, err
	}
	sch, err := lab.NewScheme(sn.Scheme)
	if err != nil {
		return nil, nil, err
	}
	sys := sim.NewSystem(lab.U, lab.Tr, kind, lab.Net, sn.Seed)
	sys.SetObs(obs.NewRecorder(int(lab.Tr.Span()/1000) + 2))
	st.Install(sys, sn.Seed, sn.Loss)
	return sys, sch, nil
}

// sequentialReplay drives the Stepper over a fresh scenario system,
// timing every Search call: the unsharded reference the sharded replay
// must equal, byte-identical to sim.Run at Workers=1.
func sequentialReplay(sys *sim.System, sch sim.Scheme, t *tracer, searches *durations) metrics.Summary {
	s := t.begin("sim.sequential")
	defer t.end(s)
	a := t.begin("core.attach")
	stp := sim.NewStepper(sys, sch, 0)
	t.end(a)
	for {
		b := t.begin("core.state")
		batch := stp.NextBatch()
		t.end(b)
		if batch == nil {
			break
		}
		for _, ev := range batch {
			x := t.now()
			r := sch.Search(ev)
			y := t.now()
			searches.add(y - x)
			t.leaf("core.search", x, y, 0)
			stp.Record(ev, r)
		}
	}
	f := t.begin("sim.finish")
	defer t.end(f)
	return stp.Finish()
}

// runScenarios is one pass of replay-scenarios: every built-in scenario
// is built, replayed sharded at one shard per CPU (the measured replay),
// then replayed sequentially as the correctness reference. Builds repeat
// labReps times and replays scenarioReps times; each keeps its fastest.
func runScenarios(seed uint64, t *tracer) (*passOut, error) {
	p := &passOut{e2e: map[string]float64{}, layers: map[string]float64{}}
	shards := runtime.NumCPU()
	var (
		setup, sharded, sequential, heap float64
		search                           searchTimes
		sums                             summaryLayers
		drops, retries, timeouts         int64
	)
	h := sha256.New()
	for _, name := range scenario.Names() {
		sn, err := benchScenario(name, seed)
		if err != nil {
			return nil, err
		}
		var (
			lab *experiments.Lab
			st  *scenario.Staged
		)
		build, err := repeatMin(t, "scenario.build", labReps, func(int) (float64, error) {
			lab, st = nil, nil
			return timed(t, func() error {
				var err error
				lab, st, err = buildScenario(sn, t)
				return err
			})
		})
		if err != nil {
			return nil, err
		}

		var sum metrics.Summary
		var byClass [metrics.NumMsgClasses]int64
		var first float64
		shardS, err := repeatMin(t, "scenario.sharded", scenarioReps, func(r int) (float64, error) {
			sys, sch, err := scenarioSystem(lab, st, sn, t)
			if err != nil {
				return 0, err
			}
			var got metrics.Summary
			dt, _ := timed(t, func() error {
				s := t.begin("scenario." + name)
				got = sim.Run(sys, sch, sim.RunOptions{Workers: 1, Shards: shards})
				t.end(s)
				return nil
			})
			if r == 0 {
				sum, byClass, first = got, sys.Load.ByClass(), dt
				heap = max(heap, liveHeapMB(t))
			} else if !reflect.DeepEqual(got, sum) {
				p.fail("scenario %s: repeated sharded replay gave a different summary", name)
			}
			return dt, nil
		})
		if err != nil {
			return nil, err
		}
		var seq cellBest
		seqS, err := repeatMin(t, "sim.sequential", scenarioReps, func(r int) (float64, error) {
			sys, sch, err := scenarioSystem(lab, st, sn, t)
			if err != nil {
				return 0, err
			}
			var ref metrics.Summary
			var d durations
			dt, _ := timed(t, func() error {
				ref = sequentialReplay(sys, sch, t, &d)
				return nil
			})
			if !reflect.DeepEqual(ref, sum) {
				p.fail("scenario %s: sharded summary differs from the sequential replay", name)
			}
			seq.add(r, 0, dt, &d)
			return dt, nil
		})
		if err != nil {
			return nil, err
		}
		if err := summaryDigest(h, sum); err != nil {
			return nil, err
		}
		search.add(&seq, true)
		setup += build
		sharded += shardS
		p.firstReplayS += first
		sequential += seqS
		p.attempted += int64(sum.Requests)
		sums.add(sum, byClass)
		drops += sum.Drops
		retries += sum.Retries
		timeouts += sum.Timeouts
		fmt.Printf("scenario %s seed=%d build=%.3fs sharded=%.3fs sequential=%.3fs requests=%d drops=%d\n",
			name, seed, build, shardS, seqS, sum.Requests, sum.Drops)
	}
	p.digest = hexSum(h)

	p.e2e["setup_s"] = setup
	p.e2e["replay_s"] = sharded
	p.e2e["search_qps"] = search.qps()
	p.e2e["search_p50_us"] = search.p50US()
	p.e2e["heap_mb"] = heap

	p.layers["sim.sharded_s"] = sharded
	p.layers["sim.sequential_s"] = sequential
	p.layers["sim.shard_speedup"] = sequential / sharded
	p.layers["faults.drops"] = float64(drops)
	p.layers["faults.retries"] = float64(retries)
	p.layers["faults.timeouts"] = float64(timeouts)
	sums.into(p.layers)
	fmt.Printf("scenarios seed=%d shards=%d setup=%.3fs sharded=%.3fs sequential=%.3fs qps=%.0f p50=%.2fus heap=%.1fMB\n",
		seed, shards, setup, sharded, sequential, p.e2e["search_qps"], p.e2e["search_p50_us"], heap)
	return p, nil
}
