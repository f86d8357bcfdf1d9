package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/pricing"
	"repro/internal/serve"
	"repro/internal/xmark"
)

// system is one stood-up warehouse daemon: the served system as
// `xwh serve` runs it, with default core.Config, strategy 2LUPI, indexed on
// two l instances, NumCPU query processors behind a serve.Server with a
// queue of 4x workers, listening on loopback inside this process.
type system struct {
	def     *workloadDef
	w       *core.Warehouse
	backend *serve.WarehouseBackend
	timed   *timedBackend // nil unless the run is traced
	srv     *serve.Server
	base    string

	drainIn *ec2.Instance // runs the final compaction drain (mutable only)

	report    core.IndexReport
	setup     time.Duration // first SubmitDocument to /readyz, references excluded
	indexUSD  float64       // billed dollars of the set-up indexing
	docs      map[string][]byte
	reference [][]byte // canonical no-index answer per query (read-only workloads)
}

var book = pricing.Singapore2012()

// setUp indexes the corpus and starts the daemon. withRefs computes the
// no-index reference answers (outside the set-up clock); traced wraps the
// backend in the timing decorator.
func setUp(def *workloadDef, corpus []xmark.Doc, withRefs, traced bool) (*system, error) {
	cfg := core.Config{Strategy: index.TwoLUPI}
	if def.mutable {
		cfg.MutableCorpus, cfg.CompactEveryDocs = true, compactEveryDocs
	}
	w, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &system{def: def, w: w, docs: make(map[string][]byte, len(corpus))}

	t0 := time.Now()
	for _, d := range corpus {
		if err := w.SubmitDocument(d.URI, d.Data); err != nil {
			return nil, err
		}
	}
	fleet := ec2.LaunchFleet(w.Ledger(), ec2.Large, 2)
	if s.report, err = w.IndexCorpusOn(fleet, nil); err != nil {
		return nil, err
	}
	if def.mutable {
		// Fold whatever the last auto-compaction left in the write buffer,
		// so every run starts from a fully compacted store.
		if err := drain(w, fleet[0]); err != nil {
			return nil, err
		}
	}
	indexed := time.Since(t0)
	s.indexUSD = usd(w.Ledger().Snapshot())
	for _, d := range corpus {
		s.docs[d.URI] = d.Data
	}

	if withRefs && !def.mutable {
		in := ec2.Launch(w.Ledger(), ec2.Large)
		for _, q := range def.queries {
			res, _, err := w.RunQueryOn(in, q.Text, false)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", q.Name, err)
			}
			s.reference = append(s.reference, canonical(res))
		}
	}

	t1 := time.Now()
	workers := runtime.NumCPU()
	s.backend = serve.NewWarehouseBackend(w, workers, ec2.Large, core.WorkerOptions{})
	var b serve.Backend = s.backend
	if traced {
		s.timed = newTimedBackend(s.backend, w)
		b = s.timed
	}
	s.srv, err = serve.New(serve.Config{
		Backend:  b,
		Registry: w.Registry(),
		Bill:     func() pricing.Invoice { return book.Bill(w.Ledger().Snapshot()) },
		Limits:   serve.Limits{Workers: workers, QueueDepth: 4 * workers},
	})
	if err != nil {
		return nil, err
	}
	addr, err := s.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + addr
	if err := waitReady(s.base); err != nil {
		s.close()
		return nil, err
	}
	s.setup = indexed + time.Since(t1)
	return s, nil
}

// waitReady polls /readyz without sleeping between attempts, so the set-up
// clock is not quantized by a poll interval.
func waitReady(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("daemon at %s not ready after 30s", base)
}

// close drains the daemon and waits for its workers to stop.
func (s *system) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// canonical renders an answer in the wire shape of the daemon's response,
// so a served answer and a one-shot answer compare byte for byte.
func canonical(res *engine.Result) []byte {
	rows := make([]serve.ResponseRow, 0, len(res.Rows))
	for _, r := range res.Rows {
		rows = append(rows, serve.ResponseRow{URI: r.URI, Cols: r.Cols})
	}
	return canonicalRows(res.Columns, rows)
}

func canonicalRows(columns []string, rows []serve.ResponseRow) []byte {
	if len(rows) == 0 {
		rows = nil
	}
	b, _ := json.Marshal(struct {
		Columns []string            `json:"columns"`
		Rows    []serve.ResponseRow `json:"rows"`
	}{columns, rows})
	return b
}

// drain runs compaction passes until the write buffer is empty.
func drain(w *core.Warehouse, in *ec2.Instance) error {
	for pass := 0; w.Corpus().BufferedEntries() > 0; pass++ {
		if pass == 1000 {
			return fmt.Errorf("write buffer did not drain (%d entries left)", w.Corpus().BufferedEntries())
		}
		if _, err := w.CompactNow(in); err != nil {
			return err
		}
	}
	return nil
}
