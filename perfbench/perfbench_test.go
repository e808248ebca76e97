package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/sparsewide/iva"
	"github.com/sparsewide/iva/internal/model"
)

// The smoke tests run the benchmark in short mode: a tenth of the data, a
// one-second window and small probes. Run them from this directory with
// go test ./...

func shortRun(t *testing.T, name string, trace bool) *report {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	dir := t.TempDir()
	rep, err := run(config{workload: w, seed: 7, seconds: 1, trace: trace, short: true,
		spans: filepath.Join(dir, "spans.json"), workDir: dir})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", name, trace, err)
	}
	if !rep.result.Correct || rep.result.Failed != 0 || rep.result.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v failed=%d/%d notes=%v", name, trace,
			rep.result.Correct, rep.result.Failed, rep.result.Attempted, rep.detail["notes"])
	}
	return rep
}

// TestMetricsEmitted checks that BENCHMARK.json and the program name the
// same metrics, that every name is well formed, and that a run of every
// workload, untraced and traced, emits exactly the metrics it should.
func TestMetricsEmitted(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) || len(bench.EndToEnd) != len(endToEnd) || len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d, %d",
			len(bench.Workloads), len(bench.EndToEnd), len(bench.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for i, m := range bench.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	for i, m := range bench.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", d.name)
			}
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep := shortRun(t, w.name, trace)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.result.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rep.result.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rep.result.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.name, trace, d.name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestLayerWallsMatchSearchSpan checks that the engine's per-phase walls,
// filter + refine + merge, account for the Search span the benchmark
// records around each call, within eps: 5% of the span plus 50us for the
// planning and result conversion outside the three phases.
func TestLayerWallsMatchSearchSpan(t *testing.T) {
	for _, name := range []string{"gbase-hot", "gbase-http"} {
		rep := shortRun(t, name, true)
		m := rep.result.Metrics
		phases := m["iva.filter_ms"].Value + m["iva.refine_ms"].Value + m["iva.merge_ms"].Value
		span := rep.detail["search_span_ms"].(float64)
		eps := 0.05*span + 0.05
		if phases > span || span-phases > eps {
			t.Errorf("%s: filter+refine+merge = %.4f ms, search span = %.4f ms, eps %.4f ms", name, phases, span, eps)
		}
	}
}

// TestVerifierFlagsCorruptAnswer feeds the verifier a correct answer and
// deliberately corrupted copies of it.
func TestVerifierFlagsCorruptAnswer(t *testing.T) {
	w, _ := workloadByName("gbase-hot")
	in, err := genInputs(500, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{cfg: config{workload: w, short: true}, in: in, m: newMeter()}
	st, tids, _, _, err := e.setup("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e.st = st
	e.allocLive(len(tids))
	e.initLive(tids)
	want, err := e.bruteTopK([]*model.Query{in.mq[0]})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := st.Search(in.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAnswer(got, want[0]); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	corrupt := map[string]func([]iva.Result) []iva.Result{
		"swapped tid": func(r []iva.Result) []iva.Result { r[1].TID, r[2].TID = r[2].TID, r[1].TID; return r },
		"wrong dist":  func(r []iva.Result) []iva.Result { r[0].Dist += 0.5; return r },
		"dropped":     func(r []iva.Result) []iva.Result { return r[:len(r)-1] },
		"foreign tid": func(r []iva.Result) []iva.Result { r[len(r)-1].TID = 1 << 30; return r },
	}
	for name, f := range corrupt {
		bad := f(append([]iva.Result(nil), got...))
		if checkAnswer(bad, want[0]) == nil {
			t.Errorf("verifier accepted an answer with a %s", name)
		}
	}
	// The run-level check counts a mismatch as a failed op.
	e.check("corrupt", checkAnswer(got[:1], want[0]))
	if e.mismatches != 1 || e.failed != 1 {
		t.Errorf("mismatch not counted: mismatches=%d failed=%d", e.mismatches, e.failed)
	}
}
