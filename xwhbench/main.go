// Command xwhbench is the repository benchmark. It stands the warehouse
// daemon up inside its own process the way `xwh serve` runs it, drives it
// over loopback with a seeded closed-loop load of two client connections,
// checks every answer, and prints each metric by name and unit, ending
// with one JSON line:
//
//	go -C xwhbench run . --workload point-lookup --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the same seeded sequence untraced for half the time and traced for the
// other half, replays each traced request through the public pipeline
// calls, writes the spans as JSON lines to --spans, and reports the
// per-layer metrics. METRICS.md defines every metric and the layer and
// workload it should move. Run it through run.sh, which builds it from
// source inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one benchmark run. Tests shrink the corpus.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	docs      int
	docBytes  int
	setups    int // set-ups per run; setup_s is their median
	spansPath string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// errs lists the failures behind Failed, for the human-readable report.
	errs []string
	// samples states the sample count behind each timing metric.
	samples map[string]int
}

func main() {
	cfg := config{docs: 800, docBytes: 4096, setups: 3}
	flag.StringVar(&cfg.workload, "workload", "", "point-lookup, scan-eval or mixed-write")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the corpus and the request sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&cfg.spansPath, "spans", ".bench_build/xwhbench/spans.jsonl", "traced run: span journal output (JSON lines)")
	flag.Parse()
	cfg.trace = *trace == 1
	if _, ok := workloads()[cfg.workload]; !ok || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: xwhbench --workload point-lookup|scan-eval|mixed-write --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xwhbench:", err)
		os.Exit(1)
	}
	printReport(cfg, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xwhbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run. An error means the benchmark could not
// run at all; failed requests and wrong answers are counted in the result.
func run(cfg config) (*result, error) {
	def := workloads()[cfg.workload]
	corpus := genCorpus(cfg.seed, cfg.docs, cfg.docBytes)
	res := &result{Metrics: map[string]metric{}, samples: map[string]int{}}

	// Set up several times and report the median; the last set-up serves.
	var setups []float64
	for i := 1; i < cfg.setups; i++ {
		s, err := setUp(def, corpus, false, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if err := s.close(); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	sys, err := setUp(def, corpus, true, cfg.trace)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	setups = append(setups, sys.setup.Seconds())
	runtime.GC()
	liveHeap := liveHeapBytes()
	compactBase := compactCounts(sys)

	seq := newSequence(def, cfg.seed, corpus)
	warm := sys.runPhase(seq, 0, def.blockLen(), nil)
	res.count(warm.outs)
	measured := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		p := sys.runPhase(seq, measured, 0, nil)
		res.count(p.outs)
		if err := sys.checkEndState(res, corpus); err != nil {
			return nil, err
		}
		endToEnd(res, sys, p, setups, liveHeap)
	} else {
		tr, err := newTracer()
		if err != nil {
			return nil, err
		}
		sr, err := tr.replaySetup(corpus)
		if err != nil {
			return nil, err
		}
		plain := sys.runPhase(seq, measured/2, 0, nil)
		res.count(plain.outs)
		sys.timed.on.Store(true)
		traced := sys.runPhase(seq, measured/2, 0, tr)
		sys.timed.on.Store(false)
		res.count(traced.outs)
		if err := sys.checkEndState(res, corpus); err != nil {
			return nil, err
		}
		if err := perLayer(res, sys, sr, plain, traced, []*phase{warm, plain, traced}, compactBase); err != nil {
			return nil, err
		}
		if err := tr.writeSpans(cfg.spansPath); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// count adds a phase's requests to the attempted and failed totals.
func (r *result) count(outs []outcome) {
	for _, o := range outs {
		r.Attempted++
		if !o.ok() {
			r.fail(o.err)
		}
	}
}

func (r *result) fail(err error) {
	r.Failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		v = math.MaxFloat64 // a failed request misses every latency limit
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// latencies returns the round trips of outs in milliseconds, +Inf for a
// failed request.
func latencies(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		if o.ok() {
			xs[i] = ms(o.rt.dur())
		} else {
			xs[i] = math.Inf(1)
		}
	}
	return xs
}

func succeeded(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.ok() {
			n++
		}
	}
	return n
}

// endToEnd computes the untraced run's metrics.
func endToEnd(res *result, s *system, p *phase, setups []float64, liveHeap uint64) {
	qs := p.queries()
	okQ := float64(succeeded(qs))
	lat := latencies(qs)
	delta := p.after.usage.Sub(p.before.usage)
	modeled := p.after.modeled.Sum - p.before.modeled.Sum
	modeledN := p.after.modeled.Count - p.before.modeled.Count

	res.set("setup_s", median(setups), "s")
	res.set("query_p50_ms", percentile(lat, 0.50), "ms")
	res.set("query_p95_ms", percentile(lat, 0.95), "ms")
	res.set("query_qps", okQ/p.wall.Seconds(), "1/s")
	res.set("usd_per_1m_queries", queryBill(delta)/okQ*1e6, "usd")
	// Dividing the integer totals first keeps the mean bit-identical
	// however many whole blocks the window held.
	res.set("query_modeled_ms_mean", float64(modeled)/float64(modeledN)/1e6, "ms")
	res.set("index_usd", s.indexUSD, "usd")
	res.set("index_modeled_s", s.report.Total.Seconds(), "s")
	res.set("store_bytes_per_doc_byte", s.storeRatio(), "ratio")
	res.set("live_heap_mb", float64(liveHeap)/(1<<20), "MB")
	res.samples["setup_s"] = len(setups)
	for _, n := range []string{"query_p50_ms", "query_p95_ms", "query_qps"} {
		res.samples[n] = len(qs)
	}
}

// storeRatio is index store bytes (raw plus overhead) per byte of the
// documents the warehouse holds.
func (s *system) storeRatio() float64 {
	raw, ovh := s.w.IndexBytes()
	var data int64
	for _, d := range s.docs {
		data += int64(len(d))
	}
	return float64(raw+ovh) / float64(data)
}

func printReport(cfg config, res *result) {
	fmt.Printf("xwhbench %s seed %d, %gs measured, trace %v: %d requests, %d failed\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, res.Attempted, res.Failed)
	for _, e := range res.errs {
		fmt.Printf("  failure: %s\n", e)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		note := ""
		if k, ok := res.samples[n]; ok {
			note = fmt.Sprintf("  (%d samples)", k)
		}
		fmt.Printf("  %-30s %14.6g %s%s\n", n, m.Value, m.Unit, note)
	}
}
