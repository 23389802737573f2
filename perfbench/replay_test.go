package main

import (
	"reflect"
	"testing"

	"asap/internal/experiments"
	"asap/internal/overlay"
	"asap/internal/scenario"
	"asap/internal/sim"
)

func tinyLab(t *testing.T, seed uint64) *experiments.Lab {
	t.Helper()
	sc := experiments.ScaleTiny()
	sc.Seed = seed
	lab, err := buildLab(sc, newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

// buildLab splits experiments.NewLab into spans; it must build the same lab.
func TestBuildLabMatchesNewLab(t *testing.T) {
	sc := experiments.ScaleTiny()
	sc.Seed = 3
	want, err := experiments.NewLab(sc)
	if err != nil {
		t.Fatal(err)
	}
	got := tinyLab(t, 3)
	if !reflect.DeepEqual(got.Tr, want.Tr) || !reflect.DeepEqual(got.Scale, want.Scale) {
		t.Fatal("buildLab's trace or scale differs from experiments.NewLab's")
	}
}

// The traced Stepper-driven cell replay gives the same Summary as the
// untraced one and as sim.Run at Workers=1, for an ASAP scheme (whose
// searches mutate caches) and a baseline.
func TestReplayCellMatchesSimRun(t *testing.T) {
	lab := tinyLab(t, 2)
	proto := sim.NewTopoProto(overlay.Crawled, lab.Net, len(lab.Tr.Peers), lab.Tr.InitialLive, lab.Scale.Seed)
	for _, scheme := range []string{"asap-rw", "gsa"} {
		sch, err := lab.NewScheme(scheme)
		if err != nil {
			t.Fatal(err)
		}
		want := sim.Run(proto.NewSystem(lab.U, lab.Tr), sch, sim.RunOptions{Workers: 1})

		plain, err := replayCell(lab, proto, scheme, newTracer(false))
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(true)
		traced, err := replayCell(lab, proto, scheme, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.sum, want) {
			t.Errorf("%s: untraced Stepper replay differs from sim.Run at Workers=1", scheme)
		}
		if !reflect.DeepEqual(traced.sum, want) {
			t.Errorf("%s: traced Stepper replay differs from sim.Run at Workers=1", scheme)
		}
		if len(traced.search.ns) != want.Requests {
			t.Errorf("%s: timed %d searches, want %d", scheme, len(traced.search.ns), want.Requests)
		}
		if len(tr.spans) == 0 {
			t.Errorf("%s: traced replay recorded no spans", scheme)
		}
	}
}

// The benchmark's scenario path (its own Build split, a sharded sim.Run
// and the Stepper-driven sequential replay) reproduces scenario.Run.
func TestScenarioReplayMatchesScenarioRun(t *testing.T) {
	sn, err := scenario.ByName("partition-heal")
	if err != nil {
		t.Fatal(err)
	}
	sn.Loss = scenarioLoss
	want, err := scenario.Run(sn, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(true)
	lab, st, err := buildScenario(sn, tr)
	if err != nil {
		t.Fatal(err)
	}
	sys, sch, err := scenarioSystem(lab, st, sn, tr)
	if err != nil {
		t.Fatal(err)
	}
	sharded := sim.Run(sys, sch, sim.RunOptions{Workers: 1, Shards: 2})
	if !reflect.DeepEqual(sharded, want.Summary) {
		t.Error("sharded replay differs from scenario.Run")
	}
	sys, sch, err = scenarioSystem(lab, st, sn, tr)
	if err != nil {
		t.Fatal(err)
	}
	var d durations
	if seq := sequentialReplay(sys, sch, tr, &d); !reflect.DeepEqual(seq, want.Summary) {
		t.Error("sequential Stepper replay differs from scenario.Run")
	}
}

// The serve workload's read schedules are a pure function of the seed.
func TestReadSchedulesPureInSeed(t *testing.T) {
	m1, c1, o1 := readSchedules(7, 500, 1000)
	m2, c2, o2 := readSchedules(7, 500, 1000)
	if !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(o1, o2) {
		t.Fatal("same seed gave different schedules")
	}
	m3, c3, o3 := readSchedules(8, 500, 1000)
	if reflect.DeepEqual(m1, m3) || reflect.DeepEqual(c1, c3) || reflect.DeepEqual(o1, o3) {
		t.Fatal("another seed gave an identical schedule")
	}
	if reflect.DeepEqual(m1[:100], c1[:100]) {
		t.Fatal("phases share one read stream")
	}
	if len(m1) != 1000 || len(c1) != closedReads || len(o1) != openReads {
		t.Fatalf("schedule lengths %d, %d, %d", len(m1), len(c1), len(o1))
	}
	for i := 1; i < len(o1); i++ {
		if o1[i].AtNS < o1[i-1].AtNS {
			t.Fatal("open-loop arrivals out of order")
		}
	}
}
