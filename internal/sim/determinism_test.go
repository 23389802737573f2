package sim

import (
	"slices"
	"testing"

	"asap/internal/content"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/trace"
)

// echoScheme returns results derived deterministically from the query so
// replays can be compared field by field.
type echoScheme struct{ sys *System }

func (e *echoScheme) Name() string       { return "echo" }
func (e *echoScheme) Attach(sys *System) { e.sys = sys }
func (e *echoScheme) Search(ev *trace.Event) metrics.SearchResult {
	e.sys.Account(ev.Time, metrics.MQuery, 10)
	return metrics.SearchResult{
		Success:    true,
		ResponseMS: int64(len(ev.Terms)) + ev.Time%7,
		Bytes:      int64(ev.Node),
		Hops:       1,
	}
}
func (e *echoScheme) ContentChanged(Clock, overlay.NodeID, content.DocID, bool) {}
func (e *echoScheme) NodeJoined(Clock, overlay.NodeID)                          {}
func (e *echoScheme) NodeLeft(Clock, overlay.NodeID)                            {}
func (e *echoScheme) Tick(Clock)                                                {}
func (e *echoScheme) LoadMask() metrics.ClassMask                               { return metrics.AllMask }

// TestReplayDeterministicSingleWorker: two single-worker replays over
// freshly built systems with the same seed are identical in every
// aggregate, including the load series.
func TestReplayDeterministicSingleWorker(t *testing.T) {
	tr := testTrace(t)
	runOnce := func() metrics.Summary {
		sys := NewSystem(testU, tr, overlay.Crawled, testNet, 9)
		return Run(sys, &echoScheme{}, RunOptions{Workers: 1})
	}
	a, b := runOnce(), runOnce()
	if a.Requests != b.Requests || a.SuccessRate != b.SuccessRate ||
		a.MeanRespMS != b.MeanRespMS || a.MeanSearchBytes != b.MeanSearchBytes ||
		a.LoadMeanKBps != b.LoadMeanKBps || a.LoadStdKBps != b.LoadStdKBps {
		t.Fatalf("replays differ:\n%+v\n%+v", a, b)
	}
	if len(a.LoadSeries) != len(b.LoadSeries) {
		t.Fatal("load series lengths differ")
	}
	for i := range a.LoadSeries {
		if a.LoadSeries[i] != b.LoadSeries[i] {
			t.Fatalf("load series diverges at second %d", i)
		}
	}
}

// TestParallelAggregatesMatchSerial: for a scheme whose per-query results
// are scheduling-independent, worker count must not change any aggregate.
// The scheme declares itself pure, so Workers=8 really runs parallel
// lanes (a scheme with no declared search shape replays sequentially).
func TestParallelAggregatesMatchSerial(t *testing.T) {
	tr := testTrace(t)
	run := func(workers int) metrics.Summary {
		sys := NewSystem(testU, tr, overlay.Crawled, testNet, 9)
		return Run(sys, &pureProbeScheme{}, RunOptions{Workers: workers})
	}
	serial, parallel := run(1), run(8)
	if serial.MeanRespMS != parallel.MeanRespMS || serial.MeanSearchBytes != parallel.MeanSearchBytes {
		t.Fatalf("parallel changed aggregates: %+v vs %+v", serial, parallel)
	}
	if serial.LoadMeanKBps != parallel.LoadMeanKBps {
		t.Fatalf("parallel changed load accounting: %v vs %v", serial.LoadMeanKBps, parallel.LoadMeanKBps)
	}
}

// sameSummary compares every scalar aggregate plus the load series.
func sameSummary(t *testing.T, label string, a, b metrics.Summary) {
	t.Helper()
	if a.Requests != b.Requests || a.SuccessRate != b.SuccessRate ||
		a.MeanRespMS != b.MeanRespMS || a.MeanSearchBytes != b.MeanSearchBytes ||
		a.LoadMeanKBps != b.LoadMeanKBps || a.LoadStdKBps != b.LoadStdKBps {
		t.Fatalf("%s: summaries differ:\n%+v\n%+v", label, a, b)
	}
	if !slices.Equal(a.LoadSeries, b.LoadSeries) {
		t.Fatalf("%s: load series diverge", label)
	}
}

// TestTopoProtoReplayMatchesFresh: a System stamped from a TopoProto
// (cloned overlay + restored construction RNG) replays bit-for-bit like
// one built from scratch with the same seed — the equivalence RunMatrix's
// per-Lab graph reuse rests on.
func TestTopoProtoReplayMatchesFresh(t *testing.T) {
	tr := testTrace(t)
	for _, kind := range overlay.Kinds {
		proto := NewTopoProto(kind, testNet, len(tr.Peers), tr.InitialLive, 9)
		fresh := NewSystem(testU, tr, kind, testNet, 9)
		stamped := proto.NewSystem(testU, tr)
		for n := 0; n < fresh.NumNodes(); n++ {
			id := overlay.NodeID(n)
			if fresh.G.Host(id) != stamped.G.Host(id) {
				t.Fatalf("%v: host placement differs at node %d", kind, n)
			}
			if !slices.Equal(fresh.G.Neighbors(id), stamped.G.Neighbors(id)) {
				t.Fatalf("%v: initial wiring differs at node %d", kind, n)
			}
		}
		a := Run(fresh, &echoScheme{}, RunOptions{Workers: 1})
		b := Run(stamped, &echoScheme{}, RunOptions{Workers: 1})
		sameSummary(t, kind.String(), a, b)
		// Mid-run joins draw from the restored RNG; the overlays must have
		// evolved identically.
		for n := 0; n < fresh.NumNodes(); n++ {
			id := overlay.NodeID(n)
			if fresh.G.Alive(id) != stamped.G.Alive(id) ||
				!slices.Equal(fresh.G.Neighbors(id), stamped.G.Neighbors(id)) {
				t.Fatalf("%v: post-replay overlay diverged at node %d", kind, n)
			}
		}
	}
}

// TestTopoProtoStampsAreIndependent: consecutive stamps from one prototype
// replay identically and never contaminate each other or the master graph.
func TestTopoProtoStampsAreIndependent(t *testing.T) {
	tr := testTrace(t)
	proto := NewTopoProto(overlay.Crawled, testNet, len(tr.Peers), tr.InitialLive, 9)
	liveBefore := proto.Graph().LiveCount()
	a := Run(proto.NewSystem(testU, tr), &echoScheme{}, RunOptions{Workers: 1})
	b := Run(proto.NewSystem(testU, tr), &echoScheme{}, RunOptions{Workers: 1})
	sameSummary(t, "stamp", a, b)
	if proto.Graph().LiveCount() != liveBefore {
		t.Fatal("replays mutated the prototype's master graph")
	}
}
