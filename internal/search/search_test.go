package search

import (
	"math/rand/v2"
	"testing"

	"asap/internal/content"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/netmodel"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

var (
	testNet = netmodel.Generate(netmodel.SmallConfig())
	testU   = func() *content.Universe {
		c := content.DefaultConfig()
		c.NumPeers = 900
		c.NumDocs = 25000
		return content.Generate(c)
	}()
	testTr = func() *trace.Trace {
		cfg := trace.DefaultConfig()
		cfg.NumNodes = 400
		cfg.NumQueries = 800
		cfg.NumJoins = 30
		cfg.NumLeaves = 30
		tr, err := trace.Build(testU, cfg)
		if err != nil {
			panic(err)
		}
		return tr
	}()
)

func newSys(t *testing.T, kind overlay.Kind) *sim.System {
	t.Helper()
	return sim.NewSystem(testU, testTr, kind, testNet, 1)
}

func firstQuery(t *testing.T) *trace.Event {
	t.Helper()
	for i := range testTr.Events {
		if testTr.Events[i].Kind == trace.Query {
			return &testTr.Events[i]
		}
	}
	t.Fatal("no query in trace")
	return nil
}

func TestFloodingFindsPlantedDoc(t *testing.T) {
	sys := newSys(t, overlay.Random)
	f := NewFlooding()
	f.Attach(sys)
	ev := firstQuery(t)
	res := f.Search(ev)
	if !res.Success {
		t.Fatal("flooding failed on a satisfiable query in a connected 400-node overlay")
	}
	if res.ResponseMS <= 0 {
		t.Errorf("ResponseMS = %d, want positive", res.ResponseMS)
	}
	if res.Hops < 1 || res.Hops > f.TTL {
		t.Errorf("Hops = %d, want within [1,%d]", res.Hops, f.TTL)
	}
	if res.Bytes <= 0 {
		t.Error("no query bytes accounted")
	}
	// TTL-6 flooding on a connected degree-5 overlay touches nearly every
	// node: expect cost of the order of edges × query size.
	if res.Bytes < int64(200*sim.QueryBytes(len(ev.Terms))) {
		t.Errorf("flood cost %d suspiciously small", res.Bytes)
	}
}

func TestFloodingFailsOnForeignTerms(t *testing.T) {
	sys := newSys(t, overlay.Random)
	f := NewFlooding()
	f.Attach(sys)
	ev := &trace.Event{Time: 0, Kind: trace.Query, Node: 0, Terms: []content.Keyword{0xFFFFFFF}}
	res := f.Search(ev)
	if res.Success {
		t.Error("flooding succeeded on a term no document has")
	}
	if res.Bytes == 0 {
		t.Error("failed flood still floods; bytes must be accounted")
	}
}

func TestFloodingDeterministic(t *testing.T) {
	sys := newSys(t, overlay.Random)
	f := NewFlooding()
	f.Attach(sys)
	ev := firstQuery(t)
	a, b := f.Search(ev), f.Search(ev)
	if a != b {
		t.Errorf("flooding not deterministic: %+v vs %+v", a, b)
	}
}

func TestFloodingZeroTTL(t *testing.T) {
	sys := newSys(t, overlay.Random)
	f := &Flooding{TTL: 0}
	f.Attach(sys)
	res := f.Search(firstQuery(t))
	if res.Success || res.Bytes != 0 {
		t.Errorf("TTL-0 flood produced %+v", res)
	}
}

func TestRandomWalkBehaviour(t *testing.T) {
	sys := newSys(t, overlay.Random)
	w := NewRandomWalk(1)
	w.Attach(sys)

	succ, total := 0, 0
	var bytes int64
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		if ev.Kind != trace.Query {
			continue
		}
		total++
		res := w.Search(ev)
		if res.Success {
			succ++
			if res.ResponseMS <= 0 {
				t.Fatalf("success with non-positive response %d", res.ResponseMS)
			}
			if res.Hops < 1 || res.Hops > w.TTL {
				t.Fatalf("hops %d out of range", res.Hops)
			}
		}
		maxBytes := int64((w.Walkers*w.TTL + w.Walkers)) * int64(sim.QueryBytes(len(ev.Terms)))
		if res.Bytes > maxBytes {
			t.Fatalf("walk cost %d exceeds ceiling %d", res.Bytes, maxBytes)
		}
		bytes += res.Bytes
		if total >= 200 {
			break
		}
	}
	rate := float64(succ) / float64(total)
	// 5 walkers × 1024 steps in a 400-node overlay should succeed often;
	// the paper's failure regime needs the full-scale 10k overlay.
	if rate < 0.5 {
		t.Errorf("random-walk success %.2f too low for a 400-node overlay", rate)
	}
	if bytes == 0 {
		t.Error("no walk traffic")
	}
}

func TestRandomWalkDeterministicPerQuery(t *testing.T) {
	sys := newSys(t, overlay.Random)
	w := NewRandomWalk(7)
	w.Attach(sys)
	ev := firstQuery(t)
	a, b := w.Search(ev), w.Search(ev)
	if a != b {
		t.Errorf("random walk not deterministic per query: %+v vs %+v", a, b)
	}
}

func TestRandomWalkCheaperThanFlooding(t *testing.T) {
	sys := newSys(t, overlay.Random)
	f := NewFlooding()
	f.Attach(sys)
	w := NewRandomWalk(1)
	w.Attach(sys)

	var fBytes, wBytes int64
	count := 0
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		if ev.Kind != trace.Query {
			continue
		}
		fBytes += f.Search(ev).Bytes
		wBytes += w.Search(ev).Bytes
		if count++; count >= 100 {
			break
		}
	}
	if wBytes >= fBytes {
		t.Errorf("random walk (%d B) not cheaper than flooding (%d B)", wBytes, fBytes)
	}
}

func TestGSABudgetRespected(t *testing.T) {
	sys := newSys(t, overlay.Random)
	g := NewGSA(1)
	g.Attach(sys)
	count := 0
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		if ev.Kind != trace.Query {
			continue
		}
		res := g.Search(ev)
		ceiling := int64(g.Budget+8) * int64(sim.QueryBytes(len(ev.Terms)))
		if res.Bytes > ceiling {
			t.Fatalf("GSA cost %d exceeds budget ceiling %d", res.Bytes, ceiling)
		}
		if count++; count >= 200 {
			break
		}
	}
}

func TestGSASucceedsOften(t *testing.T) {
	sys := newSys(t, overlay.Random)
	g := NewGSA(1)
	g.Attach(sys)
	succ, total := 0, 0
	for i := range testTr.Events {
		ev := &testTr.Events[i]
		if ev.Kind != trace.Query {
			continue
		}
		total++
		if g.Search(ev).Success {
			succ++
		}
		if total >= 200 {
			break
		}
	}
	if rate := float64(succ) / float64(total); rate < 0.5 {
		t.Errorf("GSA success %.2f too low for a 400-node overlay (budget 8000)", rate)
	}
}

func TestGSANoLiveNeighbors(t *testing.T) {
	sys := newSys(t, overlay.Random)
	g := NewGSA(1)
	g.Attach(sys)
	ev := firstQuery(t)
	// Isolate the requester by removing its entire neighbourhood.
	isolated := ev.Node
	for len(sys.G.Neighbors(isolated)) > 0 {
		sys.G.Leave(sys.G.Neighbors(isolated)[0])
	}
	res := g.Search(ev)
	if res.Success || res.Bytes != 0 {
		t.Errorf("isolated requester produced %+v", res)
	}
}

func TestEndToEndRunAllBaselines(t *testing.T) {
	for _, mk := range []func() sim.Scheme{
		func() sim.Scheme { return NewFlooding() },
		func() sim.Scheme { return NewRandomWalk(3) },
		func() sim.Scheme { return NewGSA(3) },
	} {
		sch := mk()
		sys := sim.NewSystem(testU, testTr, overlay.Crawled, testNet, 2)
		sum := sim.Run(sys, sch, sim.RunOptions{})
		if sum.Requests == 0 {
			t.Fatalf("%s: no requests replayed", sch.Name())
		}
		if sum.SuccessRate <= 0 || sum.SuccessRate > 1 {
			t.Errorf("%s: success rate %v", sch.Name(), sum.SuccessRate)
		}
		if sum.MeanRespMS <= 0 {
			t.Errorf("%s: mean response %v", sch.Name(), sum.MeanRespMS)
		}
		if sum.LoadMeanKBps <= 0 {
			t.Errorf("%s: zero system load", sch.Name())
		}
		// Baseline load must exclude hit replies and control traffic.
		if sys.Load.TotalBytes(metrics.Mask(metrics.MQueryHit)) == 0 {
			t.Errorf("%s: no hit replies accounted at all", sch.Name())
		}
		if sys.Load.TotalBytes(metrics.BaselineLoadMask) >= sys.Load.TotalBytes(metrics.AllMask) {
			t.Errorf("%s: load mask does not exclude replies", sch.Name())
		}
		// Walkers check back with the requester; a flood never does.
		ctl := sys.Load.TotalBytes(metrics.Mask(metrics.MControl))
		if walks := sch.Name() != "flooding"; walks != (ctl > 0) {
			t.Errorf("%s: %d check-back bytes accounted", sch.Name(), ctl)
		}
	}
}

func TestPickNeighborAvoidsBacktrack(t *testing.T) {
	sys := newSys(t, overlay.Random)
	w := NewRandomWalk(1)
	w.Attach(sys)
	// Statistical check: walk from a node with ≥3 live neighbours and
	// verify the immediate predecessor is never chosen when alternatives
	// exist (the walkers' pick is exercised through Search determinism
	// tests; here we call it directly).
	var cur overlay.NodeID = -1
	for v := 0; v < sys.NumNodes(); v++ {
		live := 0
		for _, nb := range sys.G.Neighbors(overlay.NodeID(v)) {
			if sys.G.Alive(nb) {
				live++
			}
		}
		if live >= 3 {
			cur = overlay.NodeID(v)
			break
		}
	}
	if cur < 0 {
		t.Skip("no node with 3 live neighbours")
	}
	prev := sys.G.Neighbors(cur)[0]
	rng := rand.New(rand.NewPCG(42, 42))
	for i := 0; i < 200; i++ {
		if got := overlay.PickAvoiding(sys.G.LiveNeighbors(cur), prev, rng); got == prev {
			t.Fatal("the walkers' pick backtracked despite alternatives")
		}
	}
}

func TestScratchEpochWrap(t *testing.T) {
	sys := newSys(t, overlay.Random)
	ev := firstQuery(t)
	var match, miss overlay.NodeID = -1, -1
	for v := 0; v < sys.NumNodes() && (match < 0 || miss < 0); v++ {
		if sys.NodeMatches(overlay.NodeID(v), ev.Terms) {
			match = overlay.NodeID(v)
		} else {
			miss = overlay.NodeID(v)
		}
	}
	if match < 0 || miss < 0 {
		t.Fatal("need one matching and one non-matching node")
	}
	foreign := []content.Keyword{0xFFFFFFF}

	sc := newScratch(sys.NumNodes())
	sc.epoch = ^uint32(0) - 2
	sc.begin(0)
	sc.visit(1, 0)
	if !sc.seen(1) || sc.seen(2) {
		t.Fatal("visit bookkeeping broken near wrap")
	}
	if !sc.matches(sys, match, ev.Terms) || sc.matches(sys, miss, ev.Terms) {
		t.Fatal("match memo disagrees with NodeMatches")
	}
	sc.begin(0) // last epoch before the wrap
	if sc.matches(sys, match, foreign) {
		t.Fatal("match memo answered a new query from the previous one")
	}
	sc.begin(0) // wraps to 0 → forced clear to epoch 1
	if sc.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", sc.epoch)
	}
	if sc.seen(1) {
		t.Fatal("stale visit survived epoch wrap")
	}
	for i, e := range sc.tested {
		if e != 0 {
			t.Fatalf("match memo stamp of node %d survived epoch wrap", i)
		}
	}
	if !sc.matches(sys, match, ev.Terms) || sc.matches(sys, miss, ev.Terms) {
		t.Fatal("match memo wrong after epoch wrap")
	}
}

func TestSecAccumulator(t *testing.T) {
	sys := newSys(t, overlay.Random)
	var a sim.SecAccumulator
	a.Add(500, 10)
	a.Add(900, 5)
	a.Add(1500, 7)
	a.Add(-3, 100) // warm-up
	a.Flush(sys, metrics.MQuery)
	if got := sys.Load.BytesAt(0, metrics.BaselineLoadMask); got != 15 {
		t.Errorf("second 0 = %d, want 15", got)
	}
	if got := sys.Load.BytesAt(1, metrics.BaselineLoadMask); got != 7 {
		t.Errorf("second 1 = %d, want 7", got)
	}
	if got := sys.Load.WarmupBytes(metrics.AllMask); got != 100 {
		t.Errorf("warmup = %d, want 100", got)
	}
}

// testQueries returns the test trace's query events.
func testQueries() []*trace.Event {
	var queries []*trace.Event
	for i := range testTr.Events {
		if testTr.Events[i].Kind == trace.Query {
			queries = append(queries, &testTr.Events[i])
		}
	}
	return queries
}

// baselines returns a fresh instance of each baseline scheme.
func baselines() []sim.Scheme {
	return []sim.Scheme{NewFlooding(), NewRandomWalk(1), NewGSA(1)}
}

// TestBaselineSearchAllocs is the zero-alloc gate of the baseline search
// plane: once a scheme's pooled scratch has grown to fit the queries
// (heap, walker records, step arrays, accumulators, RNG), a Search over
// the same queries must not allocate, lossy or not.
func TestBaselineSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	queries := testQueries()[:40]
	for _, loss := range []float64{0, 0.02} {
		for _, sch := range baselines() {
			sys := newSys(t, overlay.Random)
			if loss > 0 {
				sys.SetFaults(faults.New(faults.Config{Seed: 1, LossRate: loss}))
			}
			sch.Attach(sys)
			run := func() {
				for _, ev := range queries {
					sch.Search(ev)
				}
			}
			run()
			if a := testing.AllocsPerRun(5, run); a != 0 {
				t.Errorf("%s at loss %g: %.1f allocations per %d searches, want 0", sch.Name(), loss, a, len(queries))
			}
		}
	}
}

func benchSearch(b *testing.B, sch sim.Scheme) {
	sys := sim.NewSystem(testU, testTr, overlay.Random, testNet, 1)
	sch.Attach(sys)
	queries := testQueries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch.Search(queries[i%len(queries)])
	}
}

func BenchmarkFloodingSearch(b *testing.B) { benchSearch(b, NewFlooding()) }

func BenchmarkRandomWalkSearch(b *testing.B) { benchSearch(b, NewRandomWalk(1)) }

func BenchmarkGSASearch(b *testing.B) { benchSearch(b, NewGSA(1)) }
