package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/ec2"
	"repro/internal/index"
	"repro/internal/workload"
)

// The index store hands out shared, read-only items: Get and BatchGet
// return the stored items themselves, and the look-up path decodes, caches
// and coalesces postings that alias their bytes. These tests are the safety
// net of that contract: running the ten workload queries must leave every
// table byte-identical, so any caller that writes into a returned item
// fails here.

// storeDigest hashes the whole index store, table by table, item by item.
func storeDigest(t *testing.T, w *Warehouse) string {
	t.Helper()
	h := sha256.New()
	dump := dumpStore(t, w)
	for _, tbl := range w.Strategy.Tables() {
		fmt.Fprintf(h, "table %s %d\n", tbl, len(dump[tbl]))
		for _, it := range dump[tbl] {
			fmt.Fprintln(h, itemLine(it))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runWorkloadConcurrently submits every workload query twice at once to
// live query processors, so concurrent look-ups share cached and coalesced
// postings.
func runWorkloadConcurrently(t *testing.T, w *Warehouse) {
	t.Helper()
	var workers []*Worker
	for i := 0; i < 3; i++ {
		workers = append(workers, w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.XL), WorkerOptions{}))
	}
	defer func() {
		for _, wk := range workers {
			wk.Stop()
		}
	}()
	queries := workload.XMark()
	var wg sync.WaitGroup
	for i := 0; i < 2*len(queries); i++ {
		wg.Add(1)
		go func(q workload.Query) {
			defer wg.Done()
			id, err := w.SubmitQuery(q.Text, true)
			if err != nil {
				t.Errorf("%s: %v", q.Name, err)
				return
			}
			out, err := w.AwaitResult(id, 30*time.Second)
			if err != nil {
				t.Errorf("%s: %v", q.Name, err)
				return
			}
			if out.Err != nil {
				t.Errorf("%s: %v", q.Name, out.Err)
			}
		}(queries[i%len(queries)])
	}
	wg.Wait()
}

func TestQueriesLeaveStoreUnchanged(t *testing.T) {
	seed := chaosSeed(t)

	t.Run("concurrent-cached-coalesced", func(t *testing.T) {
		w, _ := indexCorpus(t, Config{
			Strategy:               index.TwoLUPI,
			QueryWorkers:           4,
			QueryLookupConcurrency: 4,
			PostingCacheBytes:      1 << 20,
			CoalesceLookups:        true,
		}, 2, chaosCorpus(seed))
		before := storeDigest(t, w)
		// The first pass fills the posting cache; the second reads it.
		runWorkload(t, w)
		runWorkload(t, w)
		runWorkloadConcurrently(t, w)
		if after := storeDigest(t, w); after != before {
			t.Errorf("store digest changed across queries: %s -> %s", before, after)
		}
		if st := w.LookupTotals(); st.CacheHits == 0 {
			t.Error("posting cache served no hits; the cached path went untested")
		}
	})

	t.Run("chaos", func(t *testing.T) {
		w, err := New(Config{
			Strategy:          index.TwoLUPI,
			PostingCacheBytes: 1 << 20,
			Chaos:             &chaos.Plan{Seed: seed, Rates: aggressiveRates()},
			MaxLoadAttempts:   200,
		})
		if err != nil {
			t.Fatal(err)
		}
		indexLive(t, w, chaosCorpus(seed), false)
		// Store faults only: the retry layer absorbs them, so every query
		// still answers while its batch reads are throttled, fail
		// transiently and come back partial and merged.
		w.ChaosInjector().SetRates(chaos.Rates{Throttle: 0.15, Internal: 0.05, PartialBatch: 0.30})
		before := storeDigest(t, w)
		runWorkload(t, w)
		if after := storeDigest(t, w); after != before {
			t.Errorf("store digest changed across chaotic queries: %s -> %s", before, after)
		}
		if w.RetryStats().Retries == 0 {
			t.Error("no store faults reached the query path")
		}
	})

	t.Run("mutable-pinned", func(t *testing.T) {
		w, err := New(Config{
			Strategy:          index.TwoLUPI,
			MutableCorpus:     true,
			QueryWorkers:      4,
			PostingCacheBytes: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		in := ec2.Launch(w.ledger, ec2.XL)
		docs := chaosCorpus(seed)
		for _, d := range docs {
			if err := w.UpdateDocument(in, d.URI, d.Data); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.CompactNow(in); err != nil {
			t.Fatal(err)
		}
		// Leave buffered updates and a removal in the overlay, so reads
		// merge delta items into the fetched main-store items.
		for i, d := range docs {
			switch {
			case i%3 == 0:
				if err := w.UpdateDocument(in, d.URI, editDoc(t, d.Data, 1)); err != nil {
					t.Fatal(err)
				}
			case i%5 == 1:
				if err := w.RemoveDocument(in, d.URI); err != nil {
					t.Fatal(err)
				}
			}
		}
		if w.Corpus().BufferedEntries() == 0 {
			t.Fatal("no overlay entries left for the pinned reads to merge")
		}
		before := storeDigest(t, w)
		view := w.Corpus().Pin()
		defer view.Release()
		for pass := 0; pass < 2; pass++ {
			for _, q := range workload.XMark() {
				answerRowsView(t, w, in, q.Text, view)
			}
		}
		if after := storeDigest(t, w); after != before {
			t.Errorf("store digest changed across pinned queries: %s -> %s", before, after)
		}
	})
}
