package sim

import (
	"math/rand/v2"
	"slices"
	"testing"

	"asap/internal/metrics"
	"asap/internal/overlay"
)

func TestSecAccumulatorBatching(t *testing.T) {
	sys := newTestSystem(t)
	var a SecAccumulator
	a.Add(100, 10)
	a.Add(900, 5)   // same second, coalesced
	a.Add(2500, 7)  // second 2
	a.Add(-50, 100) // warm-up slot
	a.Flush(sys, metrics.MAdFull)
	mask := metrics.Mask(metrics.MAdFull)
	if got := sys.Load.BytesAt(0, mask); got != 15 {
		t.Errorf("second 0 = %d, want 15", got)
	}
	if got := sys.Load.BytesAt(2, mask); got != 7 {
		t.Errorf("second 2 = %d, want 7", got)
	}
	if got := sys.Load.WarmupBytes(mask); got != 100 {
		t.Errorf("warm-up = %d, want 100", got)
	}
	// Flush resets: a second flush adds nothing.
	a.Flush(sys, metrics.MAdFull)
	if got := sys.Load.BytesAt(0, mask); got != 15 {
		t.Errorf("double flush changed totals: %d", got)
	}
}

func TestNewSystemWithGraphValidatesSize(t *testing.T) {
	tr := testTrace(t)
	hosts := testNet.RandomNodes(10, newRng())
	g := overlay.NewRandom(testNet, hosts, 10, 3, newRng())
	defer func() {
		if recover() == nil {
			t.Error("mismatched graph size did not panic")
		}
	}()
	NewSystemWithGraph(testU, tr, g)
}

func TestSystemAccessors(t *testing.T) {
	sys := newTestSystem(t)
	if sys.InitialLive() != sys.Tr.InitialLive {
		t.Errorf("InitialLive = %d", sys.InitialLive())
	}
	if d := sys.Latency(0, 1); d <= 0 {
		t.Errorf("Latency(0,1) = %d", d)
	}
	if d := sys.Latency(3, 3); d != 0 {
		t.Errorf("self latency = %d", d)
	}
}

func newRng() *rand.Rand { return rand.New(rand.NewPCG(3, 3)) }

// TestAddRunMatchesAdd: AddRun books exactly what a per-entry Add loop
// books — the same seconds in the same first-seen order with the same
// byte totals — for non-decreasing runs crossing second boundaries and
// the warm-up slot, and for unsorted input too.
func TestAddRunMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	runs := [][]Clock{
		nil,
		{-5000, -1, 0, 999, 1000, 1001, 1999, 2000, 5000, 5000, 5999},
		{-2000, -1000, -999, -1},
		{7000},
		{0, 0, 0},
		{2500, 100, 2600, -3, 900, 2999, 3000},
	}
	for i := 0; i < 50; i++ {
		run := make([]Clock, rng.IntN(200))
		t0 := Clock(rng.IntN(4000)) - 2000
		for j := range run {
			t0 += Clock(rng.IntN(400))
			run[j] = t0
		}
		runs = append(runs, run)
	}
	for i, run := range runs {
		var per, batched SecAccumulator
		per.Add(12345, 1) // a slot booked before the run
		batched.Add(12345, 1)
		bytes := 1 + rng.IntN(300)
		for _, ts := range run {
			per.Add(ts, bytes)
		}
		batched.AddRun(run, bytes)
		if !slices.Equal(per.secs, batched.secs) || !slices.Equal(per.bytes, batched.bytes) {
			t.Fatalf("run %d: AddRun booked %v %v, Add loop %v %v", i, batched.secs, batched.bytes, per.secs, per.bytes)
		}
	}
}
