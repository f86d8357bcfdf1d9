package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/idblock"
	"repro/internal/index"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// This file produces the machine-readable benchmark artifact (BENCH_<n>.json
// in the repo root tracks the trajectory across PRs) and the benchcmp-style
// comparison between two artifacts. The artifact holds the wall-clock
// results of the key hot-path benchmarks plus the per-stage observability
// table of a traced run, so a regression in either joins CPU or modeled
// cost shows up in one diff.

// ArtifactVersion is bumped when the schema changes incompatibly.
const ArtifactVersion = 1

// BenchEntry is one benchmark's measured result.
type BenchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
}

// StageEntry is one pipeline stage of the traced observability run.
type StageEntry struct {
	Stage   string  `json:"stage"`
	Spans   int     `json:"spans"`
	TotalNs int64   `json:"total_ns"`
	MeanNs  int64   `json:"mean_ns"`
	Calls   int64   `json:"calls"`
	Units   int64   `json:"units"`
	Bytes   int64   `json:"bytes"`
	CostUSD float64 `json:"cost_usd"`
}

// ServeEntry is one (mix, concurrency) arm of the serving ladder: the
// query daemon under seeded closed-loop load. Latency and throughput are
// wall clock, so like Benchmarks they are informational across machines;
// the offered sequence itself is deterministic per seed.
type ServeEntry struct {
	Dist          string  `json:"dist"`
	Concurrency   int     `json:"concurrency"`
	Requests      int     `json:"requests"`
	Completed     int     `json:"completed"`
	Shed          int     `json:"shed"`
	Errors        int     `json:"errors"`
	P50Ns         int64   `json:"p50_ns"`
	P95Ns         int64   `json:"p95_ns"`
	P99Ns         int64   `json:"p99_ns"`
	ThroughputQPS float64 `json:"throughput_qps"`
	CostPer1M     float64 `json:"cost_per_1m"`
}

// MutateEntry is one (write fraction, compaction interval) arm of the
// mixed read/write ladder over a mutable-corpus warehouse: throughput and
// latency are wall clock; the billed re-writes and modeled $/1M-mutations
// are deterministic per seed.
type MutateEntry struct {
	WriteEvery     int     `json:"write_every"`
	CompactEvery   int     `json:"compact_every"`
	Requests       int     `json:"requests"`
	Updates        int     `json:"updates"`
	Removes        int     `json:"removes"`
	P50Ns          int64   `json:"p50_ns"`
	P95Ns          int64   `json:"p95_ns"`
	WriteP95Ns     int64   `json:"write_p95_ns"`
	ThroughputQPS  float64 `json:"throughput_qps"`
	CompactPuts    int64   `json:"compact_puts"`
	CompactDeletes int64   `json:"compact_deletes"`
	WriteAmp       float64 `json:"write_amp"`
	CostPer1M      float64 `json:"cost_per_1m_mutations"`
}

// Artifact is the whole benchmark snapshot.
type Artifact struct {
	Version    int          `json:"version"`
	Scale      string       `json:"scale"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Benchmarks []BenchEntry `json:"benchmarks"`
	Stages     []StageEntry `json:"stages"`
	// Serve is the serving ladder; absent in pre-serve artifacts.
	Serve []ServeEntry `json:"serve,omitempty"`
	// Mutate is the mixed read/write ladder over a mutable corpus; absent
	// in pre-mutability artifacts.
	Mutate []MutateEntry `json:"mutate,omitempty"`
}

// RunArtifact measures the key hot-path benchmarks on the given scale and
// folds in the per-stage observability table. The benchmark set is small on
// purpose — look-up (LUI sequential and cached, 2LUPI), the full query
// pipeline, and the identifier codec in both binary formats — the paths the
// posting-list representation directly feeds.
func RunArtifact(scale Scale) (*Artifact, error) {
	c, err := NewCorpus(scale)
	if err != nil {
		return nil, err
	}
	env, err := NewQueryEnv(c)
	if err != nil {
		return nil, err
	}
	q := workload.XMark()[3].Parse().Patterns[0]

	a := &Artifact{
		Version:    ArtifactVersion,
		Scale:      scale.Name,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var benchErr error
	add := func(name string, fn func(b *testing.B)) {
		if benchErr != nil {
			return
		}
		r := testing.Benchmark(fn)
		if r.N == 0 {
			benchErr = fmt.Errorf("bench: %s did not run", name)
			return
		}
		a.Benchmarks = append(a.Benchmarks, BenchEntry{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: int64(r.AllocsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		})
	}

	lookup := func(s index.Strategy, opts index.LookupOptions) func(b *testing.B) {
		w := env.Warehouse(AccessPath(s.Name()))
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := index.LookupPattern(w.Store(), s, q, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	add("LookupPattern/LUI/seq", lookup(index.LUI, index.LookupOptions{Concurrency: 1}))
	add("LookupPattern/LUI/cached", lookup(index.LUI, index.LookupOptions{
		Concurrency: 8, Cache: index.NewPostingCache(index.DefaultCacheBytes)}))
	add("LookupPattern/2LUPI/seq", lookup(index.TwoLUPI, index.LookupOptions{Concurrency: 1}))
	add("LookupPattern/LU/seq", lookup(index.LU, index.LookupOptions{Concurrency: 1}))
	add("LookupPattern/LUP/seq", lookup(index.LUP, index.LookupOptions{Concurrency: 1}))

	queryWarehouse := env.Warehouse(AccessPath(index.TwoLUPI.Name()))
	queryProc := ec2.Launch(queryWarehouse.Ledger(), ec2.Large)
	queryText := workload.XMark()[3].Text
	add("ProcessQuery/2LUPI", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := queryWarehouse.RunQueryOn(queryProc, queryText, true); err != nil {
				b.Fatal(err)
			}
		}
	})

	var ids []xmltree.NodeID
	for i := int32(1); i <= 4096; i++ {
		ids = append(ids, xmltree.NodeID{Pre: i * 3, Post: i, Depth: 5})
	}
	legacy := index.EncodeIDsBinary(ids, 48<<10)
	blocked := index.EncodeIDsBlocked(ids, 48<<10)
	add("IDCodec/encode-blocked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			index.EncodeIDsBlocked(ids, 48<<10)
		}
	})
	decode := func(blobs [][]byte) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, blob := range blobs {
					if _, err := index.DecodeIDsBinary(blob); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	add("IDCodec/decode-legacy", decode(legacy))
	add("IDCodec/decode-blocked", decode(blocked))

	// The two blocked payload families head to head over the same set:
	// decode-blocked above tracks what the writer emits (packed), while
	// this pair keeps both wire formats measured explicitly so their ratio
	// is visible in one artifact. Version-1 blobs are only read (older
	// stores hold them), so idblock.Encode builds that side.
	blockedVarint := idblock.Encode(ids, 0, 48<<10)
	add("DecodeBlock/varint", decode(blockedVarint))
	add("DecodeBlock/packed", decode(blocked))

	// LUP over front-coded path blocks: the prefix-skip matcher's hot path.
	// The stock LUP warehouse stores plain path strings, so this entry needs
	// its own compressed-path build.
	lupW, _, _, err := BuildWarehouseCfg(c, core.Config{Strategy: index.LUP, CompressPaths: true}, 8, ec2.Large)
	if err != nil {
		return nil, err
	}
	add("LookupPattern/LUP/compressed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := index.LookupPattern(lupW.Store(), index.LUP, q, index.LookupOptions{Concurrency: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if benchErr != nil {
		return nil, benchErr
	}

	rows, _, err := RunObs(c)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		a.Stages = append(a.Stages, StageEntry{
			Stage:   r.Stage,
			Spans:   r.Spans,
			TotalNs: r.Total.Nanoseconds(),
			MeanNs:  r.Mean.Nanoseconds(),
			Calls:   r.Calls,
			Units:   r.Units,
			Bytes:   r.Bytes,
			CostUSD: float64(r.Cost),
		})
	}

	// The serving ladder reuses the 2LUPI warehouse the query benchmarks
	// ran against; the daemon's processor fleet and frontend are torn down
	// inside RunServe, leaving the warehouse untouched.
	servePoints, err := RunServe(queryWarehouse, 42, 4)
	if err != nil {
		return nil, err
	}
	for _, p := range servePoints {
		a.Serve = append(a.Serve, ServeEntry{
			Dist:          p.Dist,
			Concurrency:   p.Concurrency,
			Requests:      p.Requests,
			Completed:     p.Completed,
			Shed:          p.Shed,
			Errors:        p.Errors,
			P50Ns:         p.P50.Nanoseconds(),
			P95Ns:         p.P95.Nanoseconds(),
			P99Ns:         p.P99.Nanoseconds(),
			ThroughputQPS: p.ThroughputQPS,
			CostPer1M:     p.CostPer1M,
		})
	}

	// The mixed read/write ladder builds its own mutable warehouses from
	// the same corpus — compaction counters and billing stay per-arm.
	mutatePoints, err := RunMutate(c, 42, 4)
	if err != nil {
		return nil, err
	}
	for _, p := range mutatePoints {
		a.Mutate = append(a.Mutate, MutateEntry{
			WriteEvery:     p.WriteEvery,
			CompactEvery:   p.CompactEvery,
			Requests:       p.Requests,
			Updates:        p.Updates,
			Removes:        p.Removes,
			P50Ns:          p.P50.Nanoseconds(),
			P95Ns:          p.P95.Nanoseconds(),
			WriteP95Ns:     p.WriteP95.Nanoseconds(),
			ThroughputQPS:  p.ThroughputQPS,
			CompactPuts:    p.CompactPuts,
			CompactDeletes: p.CompactDeletes,
			WriteAmp:       p.WriteAmp,
			CostPer1M:      p.CostPer1M,
		})
	}
	return a, nil
}

// WriteArtifact marshals the artifact to path with stable field order.
func WriteArtifact(a *Artifact, path string) error {
	sort.Slice(a.Benchmarks, func(i, j int) bool { return a.Benchmarks[i].Name < a.Benchmarks[j].Name })
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadArtifact loads an artifact from path.
func ReadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("bench: %s: artifact version %d, want %d", path, a.Version, ArtifactVersion)
	}
	return &a, nil
}

// CompareArtifacts renders a benchcmp-style diff of two artifacts and
// returns the names of the benchmarks whose wall-clock ns/op regressed by
// more than threshold (0.10 = 10%). Benchmarks present on only one side are
// listed but never counted as regressions — hardware and corpus scale
// differences make cross-machine comparisons informational, so callers
// decide what a regression means for them.
func CompareArtifacts(old, new *Artifact, threshold float64) (string, []string) {
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark comparison: old scale=%s new scale=%s (flagging >%.0f%% ns/op regressions)\n",
		old.Scale, new.Scale, threshold*100)
	fmt.Fprintf(&b, "%-28s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	oldBy := map[string]BenchEntry{}
	for _, e := range old.Benchmarks {
		oldBy[e.Name] = e
	}
	names := make([]string, 0, len(new.Benchmarks))
	newBy := map[string]BenchEntry{}
	for _, e := range new.Benchmarks {
		names = append(names, e.Name)
		newBy[e.Name] = e
	}
	sort.Strings(names)
	var regressed []string
	for _, n := range names {
		ne := newBy[n]
		oe, ok := oldBy[n]
		if !ok {
			fmt.Fprintf(&b, "%-28s %14s %14.0f %8s\n", n, "-", ne.NsPerOp, "new")
			continue
		}
		delta := (ne.NsPerOp - oe.NsPerOp) / oe.NsPerOp
		mark := ""
		if delta > threshold {
			mark = "  REGRESSION"
			regressed = append(regressed, n)
		}
		fmt.Fprintf(&b, "%-28s %14.0f %14.0f %+7.1f%%%s\n", n, oe.NsPerOp, ne.NsPerOp, delta*100, mark)
	}
	for _, e := range old.Benchmarks {
		if _, ok := newBy[e.Name]; !ok {
			fmt.Fprintf(&b, "%-28s %14.0f %14s %8s\n", e.Name, e.NsPerOp, "-", "gone")
		}
	}
	return b.String(), regressed
}
