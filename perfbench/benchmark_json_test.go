package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in
// step with the metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		kind string
		json []def
		code []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.json), len(c.code))
			continue
		}
		for i, d := range c.code {
			if j := c.json[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %s %s %s", c.kind, i, j, d.name, d.unit, d.better)
			}
		}
	}
}
