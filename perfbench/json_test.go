package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// in step with the metrics the program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind string
		want []metricSpec
		got  []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("%s lists %d metrics, the program prints %d", tc.kind, len(tc.got), len(tc.want))
		}
		for i, m := range tc.want {
			if tc.got[i].Name != m.name || tc.got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s (%s), program prints %s (%s)", tc.kind, i, tc.got[i].Name, tc.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
