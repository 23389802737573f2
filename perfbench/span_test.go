package main

import (
	"testing"
)

// A hand-built tree:
//
//	0 run        [0, 100)
//	├─ 1 setup   [0, 30)
//	│  └─ 3 gen  [5, 15)
//	├─ 2 replay  [30, 90)
//	│  ├─ 4 a    [40, 60)
//	│  ├─ 5 b    [50, 70)   overlaps a: only [60, 70) is new cover
//	│  └─ 6 c    [85, 95)   spills past its parent: only [85, 90) counts
//	└─ (10 units of run not covered by any child)
func handTree() []span {
	return []span{
		{name: "run", start: 0, end: 100, parent: -1},
		{name: "setup", start: 0, end: 30, parent: 0},
		{name: "replay", start: 30, end: 90, parent: 0},
		{name: "gen", start: 5, end: 15, parent: 1},
		{name: "a", start: 40, end: 60, parent: 2},
		{name: "b", start: 50, end: 70, parent: 2},
		{name: "c", start: 85, end: 95, parent: 2},
	}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(handTree())
	want := []int64{
		100 - 30 - 60,  // run: setup and replay cover 90
		30 - 10,        // setup: gen covers 10
		60 - (30 + 5),  // replay: a∪b covers [40,70), c covers [85,90)
		10, 20, 20, 10, // leaves
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

// With nested, non-overlapping children the self times of all spans add
// up to the root's wall time: the property reportAccounting prints.
func TestSelfTimesSumToWall(t *testing.T) {
	spans := []span{
		{name: "run", start: 0, end: 50, parent: -1},
		{name: "x", start: 2, end: 20, parent: 0},
		{name: "y", start: 4, end: 9, parent: 1},
		{name: "y", start: 10, end: 18, parent: 1},
		{name: "z", start: 25, end: 49, parent: 0},
	}
	var sum int64
	for _, s := range selfTimes(spans) {
		sum += s
	}
	if sum != 50 {
		t.Fatalf("self times sum to %d, want the root's 50", sum)
	}
	agg := byName(spans)
	if y := agg["y"]; y.count != 2 || y.total != 13 {
		t.Fatalf("y aggregate %+v", y)
	}
	if x := agg["x"]; x.count != 1 || x.total != 18 {
		t.Fatalf("x aggregate %+v", x)
	}
}

func TestTracerNestingAndRepeat(t *testing.T) {
	tr := newTracer(true)
	root := tr.begin("run")
	tr.repeat("setup.repeat", func() {
		s := tr.begin("hidden")
		tr.leaf("hidden.leaf", 1, 2, 0)
		tr.end(s)
	})
	s := tr.begin("setup")
	tr.leaf("gen", tr.now(), tr.now(), 7)
	tr.end(s)
	tr.end(root)

	names := []string{}
	for _, sp := range tr.spans {
		names = append(names, sp.name)
	}
	want := []string{"run", "setup.repeat", "setup", "gen"}
	if len(names) != len(want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("spans %v, want %v", names, want)
		}
	}
	if tr.spans[3].parent != 2 || tr.spans[2].parent != 0 || tr.spans[1].parent != 0 {
		t.Fatalf("wrong parents: %+v", tr.spans)
	}
	if tr.spans[3].req != 7 {
		t.Fatalf("request id lost: %+v", tr.spans[3])
	}

	off := newTracer(false)
	off.end(off.begin("x"))
	off.leaf("y", 0, 1, 0)
	if len(off.spans) != 0 {
		t.Fatalf("disabled tracer recorded %d spans", len(off.spans))
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	var d durations
	for _, v := range []int64{5, 1, 4, 2, 3, 3} {
		d.add(v)
	}
	if v, above := d.quantile(0.5); v != 3 || above != 2 {
		t.Fatalf("quantile(0.5) = %d, %d above", v, above)
	}
	if v, above := d.quantile(1); v != 5 || above != 0 {
		t.Fatalf("quantile(1) = %d, %d above", v, above)
	}
}
