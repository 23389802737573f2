package main

import (
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"sort"
	"strconv"
	"time"

	"asap/internal/content"
	"asap/internal/experiments"
	"asap/internal/metrics"
	"asap/internal/netmodel"
	"asap/internal/trace"
)

// buildLab is experiments.NewLab with each generator in its own span, so
// the traced run can split lab set-up by layer.
func buildLab(sc experiments.Scale, t *tracer) (*experiments.Lab, error) {
	sc.Net.Seed, sc.Content.Seed, sc.Trace.Seed = sc.Seed, sc.Seed, sc.Seed
	s := t.begin("netmodel.generate")
	net := netmodel.Generate(sc.Net)
	t.end(s)
	s = t.begin("content.generate")
	u := content.Generate(sc.Content)
	t.end(s)
	s = t.begin("trace.build")
	tr, err := trace.Build(u, sc.Trace)
	t.end(s)
	if err != nil {
		return nil, fmt.Errorf("building trace: %w", err)
	}
	return &experiments.Lab{Scale: sc, Net: net, U: u, Tr: tr}, nil
}

// Set-up and replay times are taken as the minimum over repetitions
// inside one pass. The host's noise is one-sided (time stolen by the
// hypervisor, other tenants' bursts), so the fastest repetition is the
// steadiest estimate of the work itself; a single sample of a few seconds
// can be slowed by a tenth or more. Only the first repetition is traced,
// so per-layer sums count one repetition.
const (
	labReps      = 3 // lab (and matrix topology) builds per pass
	matrixReps   = 2 // replays of each matrix cell
	scenarioReps = 2 // sharded and sequential replays of each scenario
	serveReps    = 2 // warm-ups and mixed phases of the serving node
)

// repeatMin runs fn reps times, the first traced and the rest under a
// muted repeat span, and returns the minimum of the seconds fn reports.
func repeatMin(t *tracer, name string, reps int, fn func(rep int) (float64, error)) (float64, error) {
	best := 0.0
	for r := 0; r < reps; r++ {
		var s float64
		var err error
		run := func() { s, err = fn(r) }
		if r == 0 {
			run()
		} else {
			t.repeat(name+".repeat", run)
		}
		if err != nil {
			return 0, err
		}
		if r == 0 || s < best {
			best = s
		}
	}
	return best, nil
}

// timed runs fn after settling the heap and returns its wall time.
func timed(t *tracer, fn func() error) (float64, error) {
	settle(t)
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}

// minLab builds the lab labReps times and returns the last build with the
// fastest build time.
func minLab(sc experiments.Scale, t *tracer) (*experiments.Lab, float64, error) {
	var lab *experiments.Lab
	d, err := repeatMin(t, "setup.lab", labReps, func(int) (float64, error) {
		lab = nil // let the previous copy be collected before the next build
		s := t.begin("setup.lab")
		defer t.end(s)
		return timed(t, func() error {
			var err error
			lab, err = buildLab(sc, t)
			return err
		})
	})
	return lab, d, err
}

// settle forces a collection before a timed section, so every section
// starts at the same point of the GC cycle instead of inheriting however
// much garbage the previous one left (a mid-section cycle on a large heap
// otherwise costs mark assists and write barriers in some runs only).
func settle(t *tracer) {
	s := t.begin("bench.gc")
	runtime.GC()
	t.end(s)
}

// liveHeapMB forces a collection and returns the live heap in MB. It is
// called outside every timed section.
func liveHeapMB(t *tracer) float64 {
	s := t.begin("bench.heap")
	defer t.end(s)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// summaryDigest feeds one Summary's canonical JSON into h.
func summaryDigest(h hash.Hash, s metrics.Summary) error {
	b, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("encoding summary %s/%s: %w", s.Scheme, s.Topology, err)
	}
	h.Write(b)
	h.Write([]byte{'\n'})
	return nil
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// durations collects per-call times for medians and throughput.
type durations struct {
	ns    []int64
	total int64
}

func (d *durations) add(ns int64) {
	d.ns = append(d.ns, ns)
	d.total += ns
}

// quantile returns the q-quantile in ns (nearest rank) and the number of
// samples strictly above it.
func (d *durations) quantile(q float64) (int64, int) {
	if len(d.ns) == 0 {
		return 0, 0
	}
	s := append([]int64(nil), d.ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	v := s[i]
	above := len(s) - sort.Search(len(s), func(k int) bool { return s[k] > v })
	return v, above
}

func (d *durations) meanUS() float64 {
	if len(d.ns) == 0 {
		return 0
	}
	return float64(d.total) / 1e3 / float64(len(d.ns))
}

// cellBest keeps, for one replayed unit (a matrix cell or a scenario),
// the fastest of its repetitions: set-up and replay time, the summed time
// of its Search calls and their median.
type cellBest struct {
	firstS          float64 // the first repetition's replay time
	setupS, replayS float64
	searches        int
	searchNS, p50NS int64
}

func (b *cellBest) add(rep int, setupS, replayS float64, d *durations) {
	p50, _ := d.quantile(0.5)
	if rep == 0 {
		*b = cellBest{replayS, setupS, replayS, len(d.ns), d.total, p50}
		return
	}
	b.setupS, b.replayS = min(b.setupS, setupS), min(b.replayS, replayS)
	b.searchNS, b.p50NS = min(b.searchNS, d.total), min(b.p50NS, p50)
}

// searchTimes folds units into the search_qps and search_p50_us metrics:
// searches per second of summed Search time, and the mean over ASAP units
// of each unit's median Search time.
type searchTimes struct {
	searches int
	searchNS int64
	p50Sum   float64
	p50Units int
}

func (s *searchTimes) add(b *cellBest, asap bool) {
	s.searches += b.searches
	s.searchNS += b.searchNS
	if asap {
		s.p50Sum += float64(b.p50NS)
		s.p50Units++
	}
}

func (s *searchTimes) qps() float64 { return float64(s.searches) / (float64(s.searchNS) / 1e9) }

func (s *searchTimes) p50US() float64 { return s.p50Sum / float64(s.p50Units) / 1e3 }

// summaryLayers folds the exact outputs of ASAP runs into the core.*
// per-layer counts: request-weighted success and one-hop rates, warm-up
// traffic and per-class bytes.
type summaryLayers struct {
	requests, successes, oneHop float64
	warmup                      int64
	bytes                       [metrics.NumMsgClasses]int64
}

func (a *summaryLayers) add(s metrics.Summary, byClass [metrics.NumMsgClasses]int64) {
	succ := s.SuccessRate * float64(s.Requests)
	a.requests += float64(s.Requests)
	a.successes += succ
	a.oneHop += s.OneHopRate * succ
	a.warmup += s.WarmupBytes
	for c := range a.bytes {
		a.bytes[c] += byClass[c]
	}
}

func (a *summaryLayers) into(out map[string]float64) {
	if a.requests > 0 {
		out["core.success_rate"] = a.successes / a.requests
	}
	if a.successes > 0 {
		out["core.one_hop_rate"] = a.oneHop / a.successes
	}
	out["core.warmup_mb"] = float64(a.warmup) / (1 << 20)
	for c := range a.bytes {
		out["core.msgs."+metrics.MsgClass(c).String()] = float64(a.bytes[c])
	}
}

//go:embed pins.json
var pinsJSON []byte

// pinSet maps workload → seed → SHA-256 of the workload's outputs.
type pinSet map[string]map[string]string

func loadPins() (pinSet, error) {
	var p pinSet
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("parsing pins.json: %w", err)
	}
	return p, nil
}

func (p pinSet) get(workload string, seed uint64) (string, bool) {
	d, ok := p[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}
