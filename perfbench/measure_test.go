package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	cases := []struct {
		q      float64
		v      float64
		beyond int
	}{
		{0.5, 5, 5},
		{0.9, 9, 1},
		{0.95, 10, 0},
		{1, 10, 0},
		{0, 1, 9},
	}
	for _, c := range cases {
		v, beyond := percentile(append([]float64(nil), xs...), c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("percentile(1..10, %v) = %v with %d above, want %v with %d", c.q, v, beyond, c.v, c.beyond)
		}
	}
	// 110 steady rounds put 11 samples above p90: the tail rests on ten or
	// more samples, as a reported p90 must.
	many := make([]float64, 110)
	for i := range many {
		many[i] = float64(i)
	}
	if _, beyond := percentile(many, 0.9); beyond != 11 {
		t.Errorf("p90 of 110 samples has %d above, want 11", beyond)
	}
	if v, beyond := percentile(nil, 0.5); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("percentile of no samples = %v, %d", v, beyond)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
}

func TestUnion(t *testing.T) {
	spans := []span{
		{30, 40}, // overlaps the next one
		{35, 50},
		{0, 10},
		{10, 20}, // touches the previous one
		{60, 70},
		{62, 65}, // inside the previous one
	}
	comps, comp := union(spans)
	wantComps := []span{{0, 20}, {30, 50}, {60, 70}}
	if !reflect.DeepEqual(comps, wantComps) {
		t.Fatalf("components %v, want %v", comps, wantComps)
	}
	if want := []int{1, 1, 0, 0, 2, 2}; !reflect.DeepEqual(comp, want) {
		t.Fatalf("membership %v, want %v", comp, want)
	}
	if c, _ := union(nil); len(c) != 0 {
		t.Fatalf("union of nothing = %v", c)
	}
}

func TestCovered(t *testing.T) {
	comps := []span{{0, 20}, {30, 50}, {60, 70}}
	cases := []struct {
		w    span
		want int64
	}{
		{span{0, 100}, 50},
		{span{10, 35}, 15}, // the tail of one, the head of the next
		{span{20, 30}, 0},  // the gap between two fan-outs
		{span{65, 80}, 5},
	}
	for _, c := range cases {
		if got := covered(comps, c.w); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.w, got, c.want)
		}
	}
}

func TestSteady(t *testing.T) {
	// Five rounds posted at 10, 20, 35, 45, 60; the hook paused 1 after
	// each post. Two warm-up rounds leave rounds 3–5 steady.
	posts := []int64{10, 20, 35, 45, 60}
	pause := []int64{1, 1, 1, 1, 1}
	window, iv := steady(posts, pause, 2)
	if window != (span{20, 60}) {
		t.Fatalf("window %v, want {20 60}", window)
	}
	if want := []int64{14, 9, 14}; !reflect.DeepEqual(iv, want) {
		t.Fatalf("intervals %v, want %v", iv, want)
	}
	// A call dispatched at the last warm-up post belongs to warm-up; one
	// dispatched at the last post belongs to the steady window.
	if window.in(20) || !window.in(21) || !window.in(60) || window.in(61) {
		t.Fatal("window membership is not (lo, hi]")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables the program
// reports from in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
