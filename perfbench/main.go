// Command perfbench is the repository's benchmark. It runs one named
// workload at one seed, checks the program's outputs, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	go run . --workload replay-matrix --seed 1 --seconds 30 --trace 0
//
// Every layer is timed from outside: the benchmark calls the public
// functions of experiments, sim, scenario, core, serve and transport and
// wraps each call in a span. Run it through run.sh from the repository
// root, which builds it with a build cache inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricVal is one printed metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// passOut is what one pass of a workload measured. e2e holds every
// end-to-end metric; layers holds the per-layer values the workload
// computes itself (span-derived layer times are added by the caller).
type passOut struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64  // operations that did not complete (shed, transport errors)
	digest    string // SHA-256 of the pass's outputs, checked against the pins
	problems  []string
	// firstReplayS is replay_s summed over first repetitions only: the
	// traced pass traces exactly those, so comparing it across the two
	// passes of a traced run measures the tracing overhead.
	firstReplayS float64
}

func (p *passOut) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// workload is one named input set with its pass. Why each exists is
// recorded with its name in BENCHMARK.json.
type workload struct {
	name string
	run  func(seed uint64, t *tracer) (*passOut, error)
}

var workloads = []workload{
	{"replay-matrix", runMatrix},
	{"replay-scenarios", runScenarios},
	{"serve", runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Int("seconds", 30, "measuring budget: passes repeat while another fits")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for the span dump of a traced run")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	pins, err := loadPins()
	if err != nil {
		return err
	}
	host := newHost(*seed, *name)

	var res result
	if *traced == 1 {
		res, err = tracedRun(w, *seed, pins, *outDir)
	} else {
		res, err = measuredRun(w, *seed, *seconds, pins)
	}
	if err != nil {
		return err
	}
	host.finish()
	hj, _ := json.Marshal(host) // plain data: cannot fail
	fmt.Printf("host %s\n", hj)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// check folds a pass's output digest against the pinned one. A seed with
// no pin is checked by the workload's own cross-checks alone.
func check(w workload, seed uint64, p *passOut, pins pinSet) {
	want, pinned := pins.get(w.name, seed)
	switch {
	case !pinned:
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d has no pinned digest (%s); cross-checks only\n", w.name, seed, p.digest)
	case want != p.digest:
		p.fail("output digest %s, pinned %s", p.digest, want)
	}
	fmt.Printf("digest %s seed=%d %s pinned=%v\n", w.name, seed, p.digest, pinned)
}

// tally turns a pass into attempted/failed counts: a pass whose outputs
// are wrong counts every operation as failed.
func tally(res *result, p *passOut) {
	res.Attempted += p.attempted
	if len(p.problems) > 0 {
		res.Correct = false
		res.Failed += p.attempted
		for _, s := range p.problems {
			fmt.Fprintf(os.Stderr, "perfbench: incorrect: %s\n", s)
		}
		return
	}
	res.Failed += p.failed
}

// measuredRun repeats untraced passes while another one fits in the
// budget (always at least one) and reports each end-to-end metric as the
// median over passes.
func measuredRun(w workload, seed uint64, seconds int, pins pinSet) (result, error) {
	res := result{Correct: true, Metrics: map[string]metricVal{}}
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	samples := map[string][]float64{}
	for {
		t0 := time.Now()
		p, err := w.run(seed, newTracer(false))
		if err != nil {
			return res, err
		}
		check(w, seed, p, pins)
		tally(&res, p)
		for k, v := range p.e2e {
			samples[k] = append(samples[k], v)
		}
		last := time.Since(t0)
		if time.Since(start)+last > budget {
			break
		}
	}
	for _, m := range endToEnd {
		vs := samples[m.name]
		if len(vs) == 0 {
			return res, fmt.Errorf("workload %s did not measure %s", w.name, m.name)
		}
		res.Metrics[m.name] = metricVal{Value: median(vs), Unit: m.unit}
	}
	return res, nil
}

// tracedRun makes one untraced pass and one traced pass. The per-layer
// metrics come from the traced pass; the difference between the two
// passes' end-to-end values is the tracing overhead.
func tracedRun(w workload, seed uint64, pins pinSet, outDir string) (result, error) {
	res := result{Correct: true, Metrics: map[string]metricVal{}}
	plain, err := w.run(seed, newTracer(false))
	if err != nil {
		return res, err
	}
	check(w, seed, plain, pins)
	tally(&res, plain)

	t := newTracer(true)
	root := t.begin("run")
	p, err := w.run(seed, t)
	if err != nil {
		return res, err
	}
	t.end(root)
	check(w, seed, p, pins)
	tally(&res, p)
	if p.digest != plain.digest {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: incorrect: traced digest %s != untraced %s\n", p.digest, plain.digest)
	}

	layers := spanLayers(t.spans)
	for k, v := range p.layers {
		layers[k] = v
	}
	overhead := p.firstReplayS - plain.firstReplayS
	layers["bench.trace_overhead_s"] = overhead
	layers["bench.trace_overhead_pct"] = 100 * overhead / plain.firstReplayS
	reportAccounting(t.spans, layers)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.csv", w.name, seed))
	if err := writeSpans(path, t.spans); err != nil {
		return res, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans %s (%d spans)\n", path, len(t.spans))
	for _, m := range endToEnd {
		fmt.Printf("e2e %s untraced=%.6g traced=%.6g %s\n", m.name, plain.e2e[m.name], p.e2e[m.name], m.unit)
	}
	fmt.Printf("overhead first-repetition replay untraced=%.6fs traced=%.6fs (%+.2f%%)\n",
		plain.firstReplayS, p.firstReplayS, layers["bench.trace_overhead_pct"])
	for _, m := range perLayer {
		res.Metrics[m.name] = metricVal{Value: layers[m.name], Unit: m.unit} // 0: layer not exercised
		delete(layers, m.name)
	}
	if len(layers) > 0 {
		return res, fmt.Errorf("unlisted per-layer metrics: %v", layers)
	}
	return res, nil
}

// reportAccounting checks that the root span's wall time is covered: the
// self times of all spans add up to it, and the part no top-level span
// covers is reported as unaccounted.
func reportAccounting(spans []span, layers map[string]float64) {
	if len(spans) == 0 {
		return
	}
	self := selfTimes(spans)
	var sum, top int64
	for i, s := range spans {
		sum += self[i]
		if s.parent == 0 {
			top += s.end - s.start
		}
	}
	wall := spans[0].end - spans[0].start
	layers["bench.wall_s"] = float64(wall) / 1e9
	layers["bench.unaccounted_s"] = float64(wall-top) / 1e9
	layers["bench.spans"] = float64(len(spans))
	fmt.Printf("accounting wall=%.6fs sum_self=%.6fs top_level=%.6fs unaccounted=%.6fs\n",
		float64(wall)/1e9, float64(sum)/1e9, float64(top)/1e9, float64(wall-top)/1e9)
}

// median returns the middle value (the mean of the two middle ones for
// an even count). It does not modify vs.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
