package main

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"time"

	"asap/internal/experiments"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// cellRun is one replayed matrix cell.
type cellRun struct {
	sum     metrics.Summary
	byClass [metrics.NumMsgClasses]int64
	events  int
	setupS  float64
	replayS float64
	heapMB  float64
	search  durations // every Search call
}

// replayCell replays one scheme on one topology by driving the Stepper
// sequentially, the same call sequence as sim.Run at Workers=1: build the
// system from the prototype, attach the scheme, then for each batch apply
// the state events and run each query's Search in trace order. Every
// Search call is timed.
func replayCell(lab *experiments.Lab, proto *sim.TopoProto, scheme string, t *tracer) (cellRun, error) {
	var c cellRun
	layer := "search"
	if strings.HasPrefix(scheme, "asap-") {
		layer = "core"
	}
	searchSpan := "core.search"
	if layer == "search" {
		searchSpan = "search." + scheme
	}

	settle(t)
	cell := t.begin("cell.setup")
	t0 := time.Now()
	s := t.begin("sim.clone")
	sys := proto.NewSystem(lab.U, lab.Tr)
	t.end(s)
	sch, err := lab.NewScheme(scheme)
	if err != nil {
		return c, err
	}
	s = t.begin(layer + ".attach")
	st := sim.NewStepper(sys, sch, 0)
	t.end(s)
	c.setupS = time.Since(t0).Seconds()
	t.end(cell)

	settle(t)
	replay := t.begin(layer + ".replay")
	t0 = time.Now()
	for {
		s = t.begin(layer + ".state")
		batch := st.NextBatch()
		t.end(s)
		if batch == nil {
			break
		}
		for _, ev := range batch {
			a := t.now()
			r := sch.Search(ev)
			b := t.now()
			c.search.add(b - a)
			t.leaf(searchSpan, a, b, 0)
			st.Record(ev, r)
		}
	}
	s = t.begin("sim.finish")
	c.sum = st.Finish()
	t.end(s)
	c.replayS = time.Since(t0).Seconds()
	t.end(replay)

	c.events = len(sys.Tr.Events)
	c.byClass = sys.Load.ByClass()
	c.heapMB = liveHeapMB(t)
	return c, nil
}

// runMatrix is one pass of replay-matrix: the small preset's 6 schemes ×
// 3 topologies, one cell at a time, each cell replayed matrixReps times.
func runMatrix(seed uint64, t *tracer) (*passOut, error) {
	sc := experiments.ScaleSmall()
	sc.Seed = seed
	p := &passOut{e2e: map[string]float64{}, layers: map[string]float64{}}

	var (
		lab    *experiments.Lab
		protos map[overlay.Kind]*sim.TopoProto
	)
	setup, err := repeatMin(t, "setup.lab", labReps, func(int) (float64, error) {
		lab, protos = nil, nil
		s := t.begin("setup.lab")
		defer t.end(s)
		return timed(t, func() error {
			var err error
			if lab, err = buildLab(sc, t); err != nil {
				return err
			}
			protos = make(map[overlay.Kind]*sim.TopoProto, len(overlay.Kinds))
			for _, k := range overlay.Kinds {
				ts := t.begin("sim.topo")
				protos[k] = sim.NewTopoProto(k, lab.Net, len(lab.Tr.Peers), lab.Tr.InitialLive, seed)
				t.end(ts)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	var (
		asapS, baseS, heap float64
		events             int
		sums               summaryLayers
		search             searchTimes
		baseSearch         durations
	)
	h := sha256.New()
	for _, scheme := range experiments.SchemeNames {
		asap := strings.HasPrefix(scheme, "asap-")
		for _, k := range overlay.Kinds {
			var first cellRun
			var cell cellBest
			_, err := repeatMin(t, "cell", matrixReps, func(r int) (float64, error) {
				c, err := replayCell(lab, protos[k], scheme, t)
				if err != nil {
					return 0, err
				}
				if r == 0 {
					first = c
				} else if !reflect.DeepEqual(c.sum, first.sum) {
					p.fail("%s/%s: repeated replay gave a different summary", scheme, k)
				}
				cell.add(r, c.setupS, c.replayS, &c.search)
				return c.replayS, nil
			})
			if err != nil {
				return nil, err
			}
			if first.sum.Requests == 0 {
				p.fail("%s/%s replayed no queries", scheme, k)
			}
			if err := summaryDigest(h, first.sum); err != nil {
				return nil, err
			}
			setup += cell.setupS
			p.firstReplayS += cell.firstS
			events += first.events
			heap = max(heap, first.heapMB)
			p.attempted += int64(first.sum.Requests)
			search.add(&cell, asap)
			if asap {
				asapS += cell.replayS
				sums.add(first.sum, first.byClass)
			} else {
				baseS += cell.replayS
				baseSearch.ns = append(baseSearch.ns, first.search.ns...)
				baseSearch.total += first.search.total
			}
		}
	}
	p.digest = hexSum(h)

	p.e2e["setup_s"] = setup
	p.e2e["replay_s"] = asapS + baseS
	p.e2e["search_qps"] = search.qps()
	p.e2e["search_p50_us"] = search.p50US()
	p.e2e["heap_mb"] = heap

	p.layers["core.replay_s"] = asapS
	p.layers["search.replay_s"] = baseS
	p.layers["search.search_us"] = baseSearch.meanUS()
	p.layers["sim.events"] = float64(events)
	p.layers["sim.events_per_s"] = float64(events) / (asapS + baseS)
	sums.into(p.layers)
	fmt.Printf("matrix seed=%d setup=%.3fs asap=%.3fs base=%.3fs qps=%.0f p50=%.2fus heap=%.1fMB\n",
		seed, setup, asapS, baseS, p.e2e["search_qps"], p.e2e["search_p50_us"], heap)
	return p, nil
}
