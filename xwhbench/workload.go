package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/workload"
	"repro/internal/xmark"
)

// workloadDef is one traffic mix. Requests come in blocks: each block holds
// every query of the mix perBlock times in a seeded order, and on a mixed
// workload every writeEvery-th position of the sequence is a document write
// instead. Runs stop on a block boundary, so every run completes each query
// equally often and the modeled, billed and counted per-query figures are
// exact per seed.
type workloadDef struct {
	name        string
	queries     []workload.Query
	perBlock    int  // copies of each query per block
	writeEvery  int  // every Nth request is a write; 0 = read-only
	removeEvery int  // every Nth write is a DELETE
	mutable     bool // MutableCorpus warehouse with CompactEveryDocs
}

// compactEveryDocs is the mixed workload's compaction interval.
const compactEveryDocs = 16

// blockLen is the number of requests in one block.
func (d *workloadDef) blockLen() int {
	n := len(d.queries) * d.perBlock
	if d.writeEvery > 0 {
		// Writes take every writeEvery-th slot: n queries need
		// n*writeEvery/(writeEvery-1) slots in all.
		n = n * d.writeEvery / (d.writeEvery - 1)
	}
	return n
}

func pickQueries(names ...string) []workload.Query {
	byName := map[string]workload.Query{}
	for _, q := range workload.XMark() {
		byName[q.Name] = q
	}
	out := make([]workload.Query, len(names))
	for i, n := range names {
		q, ok := byName[n]
		if !ok {
			panic("xwhbench: unknown XMark query " + n)
		}
		out[i] = q
	}
	return out
}

// workloads returns the benchmark's traffic mixes by name.
func workloads() map[string]*workloadDef {
	return map[string]*workloadDef{
		"point-lookup": {
			name:     "point-lookup",
			queries:  pickQueries("q1", "q2", "q3", "q4", "q5"),
			perBlock: 4,
		},
		"scan-eval": {
			name:     "scan-eval",
			queries:  pickQueries("q6", "q7", "q9", "q10"),
			perBlock: 2,
		},
		"mixed-write": {
			name:        "mixed-write",
			queries:     workload.XMark(),
			perBlock:    3,
			writeEvery:  4,
			removeEvery: 4,
			mutable:     true,
		},
	}
}

// genCorpus generates the seeded XMark corpus: the generator of
// bench.NewCorpus with the workload seed as its corpus seed.
func genCorpus(seed int64, docs, docBytes int) []xmark.Doc {
	cfg := xmark.DefaultConfig(docs)
	cfg.TargetDocBytes = docBytes
	cfg.Seed = seed
	out := make([]xmark.Doc, docs)
	for i := range out {
		out[i] = xmark.GenerateDoc(cfg, i)
	}
	return out
}

// request is one element of the offered sequence: a query (query >= 0) or
// a document write.
type request struct {
	seq    int
	query  int // index into workloadDef.queries; -1 for a write
	uri    string
	data   []byte // update body; nil for a DELETE
	remove bool
}

func (r request) isWrite() bool { return r.query < 0 }

// sequence generates a workload's request sequence from its seed. The same
// seed yields the same sequence; the write pool is a seeded permutation of
// the corpus, rewritten round-robin with revision-stamped content (every
// removeEvery-th write deletes instead, and the next update of that
// document re-inserts it).
type sequence struct {
	def    *workloadDef
	rng    *rand.Rand
	pool   []xmark.Doc
	block  []request
	seq    int
	writes int
}

func newSequence(def *workloadDef, seed int64, corpus []xmark.Doc) *sequence {
	rng := rand.New(rand.NewSource(seed))
	pool := append([]xmark.Doc(nil), corpus...)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return &sequence{def: def, rng: rng, pool: pool}
}

// next returns the following request of the sequence.
func (s *sequence) next() request {
	if len(s.block) == 0 {
		s.fillBlock()
	}
	r := s.block[0]
	s.block = s.block[1:]
	r.seq = s.seq
	s.seq++
	if r.isWrite() {
		s.writes++
		d := s.pool[(s.writes-1)%len(s.pool)]
		r.uri = d.URI
		if s.def.removeEvery > 0 && s.writes%s.def.removeEvery == 0 {
			r.remove = true
		} else {
			r.data = stampRevision(d.Data, s.writes)
		}
	}
	return r
}

func (s *sequence) fillBlock() {
	slots := make([]int, 0, len(s.def.queries)*s.def.perBlock)
	for i := range s.def.queries {
		for k := 0; k < s.def.perBlock; k++ {
			slots = append(slots, i)
		}
	}
	s.rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	n := s.def.blockLen()
	s.block = make([]request, 0, n)
	for pos := 0; pos < n; pos++ {
		if s.def.writeEvery > 0 && (pos+1)%s.def.writeEvery == 0 {
			s.block = append(s.block, request{query: -1})
			continue
		}
		s.block = append(s.block, request{query: slots[0]})
		slots = slots[1:]
	}
}

// stampRevision inserts a revision marker as the first child of the root
// element, so every update carries distinct content and re-indexes (the
// write mode of serve.LoadOptions).
func stampRevision(data []byte, rev int) []byte {
	i := bytes.IndexByte(data, '>')
	if i < 0 {
		return data
	}
	note := fmt.Sprintf("<note>rev%d</note>", rev)
	out := make([]byte, 0, len(data)+len(note))
	out = append(out, data[:i+1]...)
	out = append(out, note...)
	return append(out, data[i+1:]...)
}
