package main

import (
	"encoding/json"
	"os"
	"testing"
)

// tinySizing shrinks a workload's default sizing to a smoke-test city.
func tinySizing(name string) sizing {
	s := workloads[name]()
	s.N, s.SetupReps, s.Replays = 300, 2, 4
	switch name {
	case "city-live":
		s.Subs, s.Shapes, s.CheckSubs = 40, 8, 4
	case "oneshot-cold":
		s.RareFrac, s.BurstEvery, s.Checks = 0.05, 4, 6
	case "cluster-http":
		s.Checks = 4
	}
	return s
}

// TestSmoke runs every workload at tiny N, untraced and traced, and checks
// that every named metric is reported with its unit, that no operation
// failed or answered wrong, and that every stage replay equaled Engine.Do.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{Workload: name, Seed: 7, Seconds: 1.5, Trace: traced, WorkDir: t.TempDir()}
			rep, err := run(o, tinySizing(name))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res := rep.result(traced)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d (%d wrong, meta %v)",
					name, traced, res.Correct, res.Attempted, res.Failed, rep.wrong, rep.meta["samples"])
			}
			want := endToEndUnits
			if traced {
				want = layerUnits
				if rep.replays == 0 || rep.replayBad != 0 {
					t.Errorf("%s: %d stage replays, %d unequal to Engine.Do", name, rep.replays, rep.replayBad)
				}
			} else if ok := res.Metrics["ok_ratio"].Value; ok != 1 {
				t.Errorf("%s: ok_ratio %g, want 1 (error rate 0)", name, ok)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				if got, ok := res.Metrics[m]; !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m, got, unit)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json names exactly the workloads and
// metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d implemented", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: %d listed, %d reported", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if units[m.Name] != m.Unit {
				t.Errorf("%s %s: listed unit %q, reported %q", kind, m.Name, m.Unit, units[m.Name])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndUnits)
	check("per_layer", b.PerLayer, layerUnits)
}
