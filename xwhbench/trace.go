package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/meter"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// The traced run times calls into each layer's public functions from this
// file; nothing inside the program is instrumented. A served request goes
// through the daemon with timedBackend around serve.Backend, and is then
// replayed through the public pipeline calls the query processor makes:
// core.ParseQueryText, index.LookupQuery over a timing kv.Store, the file
// store's Get, xmltree.Parse and engine.EvalQueryOnDocSets.

// timingStore is a kv.Store decorator that records the wall-clock interval
// of every read and write call and the items reads return.
type timingStore struct {
	kv.Store

	mu     sync.Mutex
	reads  []interval
	writes []interval
	items  int64
}

func (t *timingStore) noteRead(start time.Time, items int) {
	end := time.Now()
	t.mu.Lock()
	t.reads = append(t.reads, interval{start, end})
	t.items += int64(items)
	t.mu.Unlock()
}

func (t *timingStore) noteWrite(start time.Time) {
	end := time.Now()
	t.mu.Lock()
	t.writes = append(t.writes, interval{start, end})
	t.mu.Unlock()
}

func (t *timingStore) Get(table, hashKey string) ([]kv.Item, time.Duration, error) {
	start := time.Now()
	items, d, err := t.Store.Get(table, hashKey)
	t.noteRead(start, len(items))
	return items, d, err
}

func (t *timingStore) BatchGet(table string, hashKeys []string) (map[string][]kv.Item, time.Duration, error) {
	start := time.Now()
	got, d, err := t.Store.BatchGet(table, hashKeys)
	n := 0
	for _, items := range got {
		n += len(items)
	}
	t.noteRead(start, n)
	return got, d, err
}

func (t *timingStore) Put(table string, item kv.Item) (time.Duration, error) {
	start := time.Now()
	d, err := t.Store.Put(table, item)
	t.noteWrite(start)
	return d, err
}

func (t *timingStore) BatchPut(table string, items []kv.Item) (time.Duration, error) {
	start := time.Now()
	d, err := t.Store.BatchPut(table, items)
	t.noteWrite(start)
	return d, err
}

func (t *timingStore) DeleteItem(table, hashKey, rangeKey string) (time.Duration, error) {
	start := time.Now()
	d, err := t.Store.DeleteItem(table, hashKey, rangeKey)
	t.noteWrite(start)
	return d, err
}

func sumDur(ivs []interval) time.Duration {
	var d time.Duration
	for _, iv := range ivs {
		d += iv.dur()
	}
	return d
}

// timedBackend decorates the daemon's serve.Backend: once switched on it
// records how long each query spends in Backend.Do (keyed by query ID) and
// each write in Update/Remove (keyed by URI), and whether the write ran a
// compaction pass.
type timedBackend struct {
	inner *serve.WarehouseBackend
	w     *core.Warehouse
	on    atomic.Bool

	mu     sync.Mutex
	dos    map[string]interval
	writes map[string]writeTiming
}

type writeTiming struct {
	iv        interval
	compacted bool
}

func newTimedBackend(inner *serve.WarehouseBackend, w *core.Warehouse) *timedBackend {
	return &timedBackend{inner: inner, w: w, dos: map[string]interval{}, writes: map[string]writeTiming{}}
}

func (b *timedBackend) Do(queryText string, useIndex bool, timeout time.Duration) (*core.QueryOutcome, error) {
	if !b.on.Load() {
		return b.inner.Do(queryText, useIndex, timeout)
	}
	start := time.Now()
	out, err := b.inner.Do(queryText, useIndex, timeout)
	iv := interval{start, time.Now()}
	if out != nil {
		b.mu.Lock()
		b.dos[out.ID] = iv
		b.mu.Unlock()
	}
	return out, err
}

func (b *timedBackend) Close() error   { return b.inner.Close() }
func (b *timedBackend) Writable() bool { return b.inner.Writable() }

func (b *timedBackend) Update(uri string, data []byte) error {
	return b.timeWrite(uri, func() error { return b.inner.Update(uri, data) })
}

func (b *timedBackend) Remove(uri string) error {
	return b.timeWrite(uri, func() error { return b.inner.Remove(uri) })
}

// timeWrite times one mutation. The traced phase runs writes exclusively,
// so a mutation counter at zero afterwards means this write triggered the
// warehouse's compaction pass.
func (b *timedBackend) timeWrite(uri string, write func() error) error {
	if !b.on.Load() {
		return write()
	}
	start := time.Now()
	err := write()
	wt := writeTiming{iv: interval{start, time.Now()}, compacted: b.w.Corpus().MutationsSinceCompact() == 0}
	b.mu.Lock()
	b.writes[uri] = wt
	b.mu.Unlock()
	return err
}

func (b *timedBackend) doTime(id string) (interval, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	iv, ok := b.dos[id]
	return iv, ok
}

func (b *timedBackend) writeTime(uri string) (writeTiming, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wt, ok := b.writes[uri]
	return wt, ok
}

var (
	_ serve.Backend      = (*timedBackend)(nil)
	_ serve.WriteBackend = (*timedBackend)(nil)
)

// replayed is one query's replay through the public pipeline calls.
type replayed struct {
	do        interval // the served request's time in Backend.Do
	wall      interval
	parse     interval
	lookup    interval
	kv        []interval
	kvItems   int64
	getOps    int64
	bytes     int64
	fetch     interval // the parallel fetch-and-parse stage
	s3        []interval
	s3Bytes   int64
	xml       []interval
	xmlBytes  int64
	eval      interval
	cands     int // candidate documents the look-up returned
	useful    int // candidates that yield at least one row
	blocksRd  int64
	blocksSkp int64
}

// writeReplay is one mutation's index contribution replayed into a
// scratch store behind a timing decorator.
type writeReplay struct {
	backend writeTiming // the served write's time in Update/Remove
	kvPut   time.Duration
}

// tracer replays traced requests and keeps their spans in memory until
// the run ends.
type tracer struct {
	epoch   time.Time
	scratch kv.Store // the write replays' index store

	mu    sync.Mutex
	spans []spanRecord
	next  int64
}

// spanRecord is one layer boundary of one request. Req is the request's
// position in the workload sequence (-1 for the set-up replay).
type spanRecord struct {
	Req    int    `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func newTracer() (*tracer, error) {
	scratch := dynamodb.New(meter.NewLedger())
	if err := index.CreateTables(scratch, index.TwoLUPI); err != nil {
		return nil, err
	}
	return &tracer{epoch: time.Now(), scratch: scratch}, nil
}

// spanBuf collects one request's spans before they join the journal.
type spanBuf struct {
	t     *tracer
	req   int
	spans []spanRecord
}

func (t *tracer) request(req int) *spanBuf { return &spanBuf{t: t, req: req} }

func (b *spanBuf) add(parent int64, name string, iv interval, count, bytes int64) int64 {
	b.t.mu.Lock()
	b.t.next++
	id := b.t.next
	b.t.mu.Unlock()
	b.spans = append(b.spans, spanRecord{
		Req: b.req, ID: id, Parent: parent, Name: name,
		Start: int64(iv.start.Sub(b.t.epoch)), End: int64(iv.end.Sub(b.t.epoch)),
		Count: count, Bytes: bytes,
	})
	return id
}

func (b *spanBuf) commit() {
	b.t.mu.Lock()
	b.t.spans = append(b.t.spans, b.spans...)
	b.t.mu.Unlock()
}

// replayQuery replays a served query through the public pipeline calls
// and checks that the replay fetched what the served query fetched and
// produced the same answer.
func (t *tracer) replayQuery(s *system, o *outcome) (*replayed, error) {
	r := o.req
	rp := &replayed{}
	var ok bool
	if rp.do, ok = s.timed.doTime(o.id); !ok {
		return nil, fmt.Errorf("no Backend.Do timing for query %s", o.id)
	}
	rp.wall.start = time.Now()
	var view *mutate.View
	if c := s.w.Corpus(); c != nil {
		view = c.Pin()
		defer view.Release()
	}

	rp.parse.start = time.Now()
	q, err := core.ParseQueryText(s.def.queries[r.query].Text)
	rp.parse.end = time.Now()
	if err != nil {
		return nil, err
	}

	ts := &timingStore{Store: s.w.Store()}
	reg := obs.NewRegistry()
	joins := index.JoinCounters{BlocksRead: reg.Counter("read"), BlocksSkipped: reg.Counter("skipped")}
	opts := index.LookupOptions{Joins: &joins}
	if view != nil {
		opts.View = view
	}
	rp.lookup.start = time.Now()
	sets, st, err := index.LookupQuery(ts, s.w.Strategy, q, opts)
	rp.lookup.end = time.Now()
	if err != nil {
		return nil, err
	}
	rp.kv, rp.kvItems = ts.reads, ts.items
	rp.getOps, rp.bytes = st.GetOps, st.BytesFetched
	rp.blocksRd, rp.blocksSkp = joins.BlocksRead.Value(), joins.BlocksSkipped.Value()

	union := map[string]bool{}
	for _, uris := range sets {
		for _, u := range uris {
			union[u] = true
		}
	}
	uris := make([]string, 0, len(union))
	for u := range union {
		uris = append(uris, u)
	}
	sort.Strings(uris)
	rp.cands = len(uris)

	rp.fetch.start = time.Now()
	docs, err := t.fetchParse(s, uris, view, rp)
	rp.fetch.end = time.Now()
	if err != nil {
		return nil, err
	}
	docSets := make([][]*xmltree.Document, len(sets))
	for i, us := range sets {
		for _, u := range us {
			docSets[i] = append(docSets[i], docs[u])
		}
	}
	rp.eval.start = time.Now()
	res, err := engine.EvalQueryOnDocSets(q, docSets, runtime.NumCPU())
	rp.eval.end = time.Now()
	if err != nil {
		return nil, err
	}
	rp.wall.end = time.Now()

	hit := map[string]bool{}
	for _, row := range res.Rows {
		for _, u := range strings.Split(row.URI, "+") {
			hit[u] = true
		}
	}
	for _, u := range uris {
		if hit[u] {
			rp.useful++
		}
	}
	t.emitQuery(o, rp)
	if !bytes.Equal(canonical(res), o.answer) {
		return rp, fmt.Errorf("%s: replayed answer differs from the served one", s.def.queries[r.query].Name)
	}
	return rp, nil
}

// fetchParse fetches and parses the candidate documents on NumCPU workers,
// as the query processor does. On a pinned view, documents superseded
// after the pin resolve to their retained bytes without a fetch.
func (t *tracer) fetchParse(s *system, uris []string, view *mutate.View, rp *replayed) (map[string]*xmltree.Document, error) {
	type fetched struct {
		doc      *xmltree.Document
		s3, xml  interval
		s3Bytes  int64
		xmlBytes int64
		fetched  bool
		err      error
	}
	out := make([]fetched, len(uris))
	one := func(i int) {
		f := &out[i]
		var data []byte
		if view != nil {
			var present bool
			if data, present = view.DocState(uris[i]); !present {
				f.err = fmt.Errorf("%s absent at corpus version %d", uris[i], view.Version())
				return
			}
		}
		if data == nil {
			f.s3.start = time.Now()
			obj, _, err := s.w.Files().Get(core.Bucket, core.DocKey(uris[i]))
			f.s3.end = time.Now()
			if err != nil {
				f.err = err
				return
			}
			f.fetched, f.s3Bytes, data = true, int64(len(obj.Data)), obj.Data
		}
		f.xml.start = time.Now()
		f.doc, f.err = xmltree.Parse(uris[i], data)
		f.xml.end = time.Now()
		f.xmlBytes = int64(len(data))
	}
	workers := runtime.NumCPU()
	if workers > len(uris) {
		workers = len(uris)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				one(i)
			}
		}()
	}
	for i := range uris {
		next <- i
	}
	close(next)
	wg.Wait()

	docs := make(map[string]*xmltree.Document, len(uris))
	for i, f := range out {
		if f.err != nil {
			return nil, f.err
		}
		docs[uris[i]] = f.doc
		if f.fetched {
			rp.s3 = append(rp.s3, f.s3)
			rp.s3Bytes += f.s3Bytes
		}
		rp.xml = append(rp.xml, f.xml)
		rp.xmlBytes += f.xmlBytes
	}
	return docs, nil
}

func (t *tracer) emitQuery(o *outcome, rp *replayed) {
	b := t.request(o.req.seq)
	root := b.add(0, "client.query", o.rt, 0, int64(o.respBytes))
	b.add(root, "serve.backend.do", rp.do, 0, 0)
	rep := b.add(root, "replay", rp.wall, 0, 0)
	b.add(rep, "pattern.parse", rp.parse, 0, 0)
	lk := b.add(rep, "index.lookup", rp.lookup, rp.getOps, rp.bytes)
	for _, iv := range rp.kv {
		b.add(lk, "kv.read", iv, 0, 0)
	}
	f := b.add(rep, "fetch", rp.fetch, int64(rp.cands), 0)
	for _, iv := range rp.s3 {
		b.add(f, "s3.get", iv, 0, 0)
	}
	for _, iv := range rp.xml {
		b.add(f, "xmltree.parse", iv, 0, 0)
	}
	b.add(rep, "engine.eval", rp.eval, int64(rp.useful), 0)
	b.commit()
}

// replayWrite replays a served mutation's index contribution into the
// scratch store: an update's new content is parsed, extracted and written;
// a removal deletes the previous content's items (written first, untimed,
// so the timed deletes find them).
func (t *tracer) replayWrite(s *system, o *outcome) (*writeReplay, error) {
	r, prev := o.req, o.prev
	wr := &writeReplay{}
	var ok bool
	if wr.backend, ok = s.timed.writeTime(r.uri); !ok {
		return nil, fmt.Errorf("no Update/Remove timing for %s", r.uri)
	}
	ts := &timingStore{Store: t.scratch}
	opts := index.OptionsFor(t.scratch)
	switch {
	case r.remove && prev == nil:
		// Removing a document that is already gone deletes nothing.
	case r.remove:
		doc, err := xmltree.Parse(r.uri, prev)
		if err != nil {
			return nil, err
		}
		if _, _, err := index.WriteExtraction(t.scratch, index.Extract(index.TwoLUPI, doc, opts)); err != nil {
			return nil, err
		}
		if _, _, err := index.DeleteDocument(ts, index.TwoLUPI, doc, opts); err != nil {
			return nil, err
		}
	default:
		doc, err := xmltree.Parse(r.uri, r.data)
		if err != nil {
			return nil, err
		}
		ex := index.Extract(index.TwoLUPI, doc, opts)
		if _, _, err := index.WriteExtraction(ts, ex); err != nil {
			return nil, err
		}
	}
	wr.kvPut = sumDur(ts.writes)

	name, compacted := "client.update", int64(0)
	if r.remove {
		name = "client.remove"
	}
	if wr.backend.compacted {
		compacted = 1
	}
	b := t.request(r.seq)
	root := b.add(0, name, o.rt, 0, int64(len(r.data)))
	b.add(root, "serve.backend.write", wr.backend.iv, compacted, 0)
	for _, iv := range ts.writes {
		b.add(root, "kv.write.replay", iv, 0, 0)
	}
	b.commit()
	return wr, nil
}

// extractionItems counts the store items a fresh insert of ex writes.
func extractionItems(store kv.Store, ex *index.Extraction) int {
	n := 0
	for _, byKey := range index.ExtractionItems(store.Limits(), ex) {
		for _, items := range byKey {
			n += len(items)
		}
	}
	return n
}

// setupReplay replays the set-up indexing per document into a scratch
// store wrapped for timing: parse, extract, then write the extraction.
type setupReplay struct {
	docs                 int
	parse, extract, puts time.Duration
}

func (t *tracer) replaySetup(corpus []xmark.Doc) (setupReplay, error) {
	scratch := dynamodb.New(meter.NewLedger())
	if err := index.CreateTables(scratch, index.TwoLUPI); err != nil {
		return setupReplay{}, err
	}
	opts := index.OptionsFor(scratch)
	sr := setupReplay{docs: len(corpus)}
	b := t.request(-1)
	for _, d := range corpus {
		t0 := time.Now()
		doc, err := xmltree.Parse(d.URI, d.Data)
		t1 := time.Now()
		if err != nil {
			return sr, err
		}
		ex := index.Extract(index.TwoLUPI, doc, opts)
		t2 := time.Now()
		if _, _, err := index.WriteExtraction(scratch, ex); err != nil {
			return sr, err
		}
		t3 := time.Now()
		sr.parse += t1.Sub(t0)
		sr.extract += t2.Sub(t1)
		sr.puts += t3.Sub(t2)
		root := b.add(0, "setup.document", interval{t0, t3}, 0, int64(len(d.Data)))
		b.add(root, "xmltree.parse", interval{t0, t1}, 0, 0)
		b.add(root, "index.extract", interval{t1, t2}, 0, 0)
		b.add(root, "index.write", interval{t2, t3}, 0, 0)
	}
	b.commit()
	return sr, nil
}

// writeSpans writes the journal as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
