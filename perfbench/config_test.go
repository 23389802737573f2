package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the metric tables in metrics.go must list the same
// workloads and metrics, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		better := "higher"
		if d.lower {
			better = "lower"
		}
		if m.Name != d.name || m.Unit != d.unit || m.Better != better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the code", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s/%s in BENCHMARK.json, %s/%s in the code", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer %s: better %q", m.Name, m.Better)
		}
	}
}

func TestPinsWellFormed(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(pins[w.name]) == 0 {
			t.Errorf("no pinned digests for %s", w.name)
		}
	}
	for w, seeds := range pins {
		if _, ok := findWorkload(w); !ok {
			t.Errorf("pins for unknown workload %q", w)
		}
		for seed, d := range seeds {
			if b, err := hex.DecodeString(d); err != nil || len(b) != 32 {
				t.Errorf("%s seed %s: digest %q is not a SHA-256", w, seed, d)
			}
		}
	}
}
