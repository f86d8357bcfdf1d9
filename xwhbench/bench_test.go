package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// small is a shrunken run: the benchmark's code paths on a corpus that
// sets up in well under a second.
func small(t *testing.T, workload string, seed int64, trace bool) config {
	return config{
		workload:  workload,
		seed:      seed,
		seconds:   0.3,
		trace:     trace,
		docs:      48,
		docBytes:  2048,
		setups:    1,
		spansPath: filepath.Join(t.TempDir(), "spans.jsonl"),
	}
}

func firstRequests(def *workloadDef, seed int64, n int) []request {
	seq := newSequence(def, seed, genCorpus(seed, 48, 2048))
	out := make([]request, n)
	for i := range out {
		out[i] = seq.next()
	}
	return out
}

func sameRequests(a, b []request) bool {
	for i := range a {
		if a[i].seq != b[i].seq || a[i].query != b[i].query || a[i].uri != b[i].uri ||
			a[i].remove != b[i].remove || !bytes.Equal(a[i].data, b[i].data) {
			return false
		}
	}
	return true
}

func TestSequenceIsSeeded(t *testing.T) {
	for name, def := range workloads() {
		n := 5 * def.blockLen()
		a, b := firstRequests(def, 7, n), firstRequests(def, 7, n)
		if !sameRequests(a, b) {
			t.Errorf("%s: the same seed gave two request sequences", name)
		}
		if sameRequests(a, firstRequests(def, 8, n)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

func TestBlocksAreBalanced(t *testing.T) {
	for name, def := range workloads() {
		counts := make([]int, len(def.queries))
		writes := 0
		for _, r := range firstRequests(def, 3, def.blockLen()) {
			if r.isWrite() {
				writes++
			} else {
				counts[r.query]++
			}
		}
		for q, c := range counts {
			if c != def.perBlock {
				t.Errorf("%s: query %s appears %d times in a block, want %d", name, def.queries[q].Name, c, def.perBlock)
			}
		}
		if def.writeEvery > 0 && writes != def.blockLen()/def.writeEvery {
			t.Errorf("%s: %d writes in a block of %d, want every %dth", name, writes, def.blockLen(), def.writeEvery)
		}
	}
}

// The exact metrics are modeled time, billed requests and stored bytes:
// two runs with one seed must report them identically, however many
// blocks each run completes in its wall-clock window. The one allowance is
// usd_per_1m_queries, which may differ in its last bits: the ledger sums
// instance seconds as float64 in completion order.
func TestExactMetricsRepeat(t *testing.T) {
	exact := map[bool][]string{
		false: {"usd_per_1m_queries", "query_modeled_ms_mean", "index_usd", "index_modeled_s", "store_bytes_per_doc_byte"},
		true:  {"index.get_ops_per_query", "index.bytes_per_query", "index.candidates_per_query", "index.precision"},
	}
	for _, trace := range []bool{false, true} {
		var runs [2]*result
		for i := range runs {
			res, err := run(small(t, "point-lookup", 11, trace))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("trace %v: run failed: %v", trace, res.errs)
			}
			runs[i] = res
		}
		for _, name := range exact[trace] {
			a, b := runs[0].Metrics[name], runs[1].Metrics[name]
			tol := 0.0
			if name == "usd_per_1m_queries" {
				tol = 1e-12 * math.Abs(a.Value)
			}
			if math.Abs(a.Value-b.Value) > tol {
				t.Errorf("trace %v: %s differs between two runs of one seed: %v vs %v", trace, name, a.Value, b.Value)
			}
			if a.Value == 0 {
				t.Errorf("trace %v: %s is zero", trace, name)
			}
		}
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares: the
// end-to-end ones for an untraced run, the per-layer ones for a traced run.
func benchmarkMetrics(t *testing.T) map[bool][]string {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[bool][]string{}
	for _, m := range doc.EndToEnd {
		names[false] = append(names[false], m.Name)
	}
	for _, m := range doc.PerLayer {
		names[true] = append(names[true], m.Name)
	}
	return names
}

// Every workload answers correctly in both modes and reports exactly the
// metrics BENCHMARK.json declares for the mode.
func TestEveryWorkloadAnswersCorrectly(t *testing.T) {
	declared := benchmarkMetrics(t)
	for name := range workloads() {
		for _, trace := range []bool{false, true} {
			res, err := run(small(t, name, 5, trace))
			if err != nil {
				t.Fatalf("%s trace %v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %v: %d of %d requests failed: %v", name, trace, res.Failed, res.Attempted, res.errs)
			}
			if len(res.Metrics) != len(declared[trace]) {
				t.Errorf("%s trace %v: %d metrics reported, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(declared[trace]))
			}
			for _, m := range declared[trace] {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s trace %v: %s not reported", name, trace, m)
				}
			}
		}
	}
}
