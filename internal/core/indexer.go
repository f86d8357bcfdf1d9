package core

import (
	"fmt"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/cloud/sqs"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

// This file implements the indexing module (steps 4-6 of Figure 1): fetch a
// document referenced by a loader-queue message from the file store,
// extract its index entries under the warehouse strategy, and insert them
// into the index store.

// IndexTaskResult reports one document's indexing, with the modeled time
// split the way Table 4 reports it.
type IndexTaskResult struct {
	URI         string
	DocBytes    int64
	ExtractTime time.Duration // EC2-side: fetch, parse, build entries
	UploadTime  time.Duration // store-side: batch put latency
	Stats       index.LoadStats
}

// extractDocument performs the EC2-side half of one loader message: fetch
// the document, parse it, and build its index entries. The returned
// extraction has not been written; ExtractTime covers the fetch latency and
// the modeled parse/extract compute. The raw document bytes are returned
// alongside so the mutable-corpus path can retain them for pinned snapshot
// reads. The work is traced as an "extract" child of parent (nil parent or
// tracer: no span).
func (w *Warehouse) extractDocument(in *ec2.Instance, uri string, parent *obs.Span) (IndexTaskResult, *index.Extraction, []byte, error) {
	esp := parent.Child(obs.SpanExtract)
	res := IndexTaskResult{URI: uri}
	obj, fetch, err := w.files.Get(Bucket, DocKey(uri))
	if err != nil {
		err = fmt.Errorf("core: fetching %s: %w", uri, err)
		esp.SetError(err)
		esp.End()
		return res, nil, nil, err
	}
	res.DocBytes = int64(len(obj.Data))
	doc, err := xmltree.Parse(uri, obj.Data)
	if err != nil {
		esp.SetError(err)
		esp.End()
		return res, nil, nil, err
	}
	ex := index.Extract(w.Strategy, doc, w.indexOptions())
	res.ExtractTime = fetch +
		in.ComputeDuration(res.DocBytes, w.Perf.ParseBytesPerECUSec) +
		in.ComputeDuration(ex.Bytes, w.Perf.ExtractBytesPerECUSec)
	w.met.indexExtract.ObserveModeled(res.ExtractTime)
	esp.SetModeled(res.ExtractTime)
	esp.SetAttrInt("doc_bytes", res.DocBytes)
	esp.SetAttrInt("entry_bytes", ex.Bytes)
	esp.End()
	return res, ex, obj.Data, nil
}

// indexDocument performs the work of one loader message on one instance
// core. New items carry range keys derived deterministically from their
// content identity (index.ItemRangeKey), so running the same message twice
// — after a crash, a lease expiry or a duplicated delivery — overwrites
// rather than duplicates: indexing is idempotent, and at-least-once queue
// delivery yields exactly-once index contents. The returned durations are
// modeled; the caller schedules them.
func (w *Warehouse) indexDocument(in *ec2.Instance, uri string, parent *obs.Span) (IndexTaskResult, error) {
	res, ex, data, err := w.extractDocument(in, uri, parent)
	if err != nil {
		return res, err
	}
	if w.corpus != nil {
		// Mutable corpus: the extraction lands in the versioned write
		// buffer as one atomic version bump — an insert for a new URI, an
		// atomic delete+insert for an existing one. No store request is
		// issued here; compaction pays the billed writes later.
		usp := parent.Child(obs.SpanUpload)
		ar := w.corpus.Apply(ex, data)
		res.Stats = index.LoadStats{Entries: ex.Entries, Items: ar.Items, Bytes: ar.Bytes}
		usp.SetAttrInt("items", int64(ar.Items))
		usp.SetAttrInt("version", int64(ar.Version))
		usp.End()
		if err := w.maybeCompact(in); err != nil {
			return res, err
		}
		return res, nil
	}
	usp := parent.Child(obs.SpanUpload)
	upload, stats, err := index.WriteExtraction(w.store, ex, w.cache)
	if err != nil {
		usp.SetError(err)
		usp.End()
		return res, err
	}
	res.UploadTime = upload
	res.Stats = stats
	w.met.indexUpload.ObserveModeled(upload)
	usp.SetModeled(upload)
	usp.SetAttrInt("items", int64(stats.Items))
	usp.SetAttrInt("requests", int64(stats.Requests))
	usp.End()
	return res, nil
}

// IndexReport aggregates an indexing run, with everything Table 4, Table 6
// and Figure 7 need.
type IndexReport struct {
	Docs      int
	DataBytes int64
	Entries   int
	Items     int // |op(D,I)| under per-row billing
	Requests  int // batch API calls

	// AvgExtract and AvgUpload are the average per-machine elapsed times
	// attributable to extraction and uploading (Table 4's two columns);
	// Total is the modeled end-to-end indexing time tidx(D,I).
	AvgExtract time.Duration
	AvgUpload  time.Duration
	Total      time.Duration
}

// IndexCorpusOn drives the indexing of the given documents over a fleet,
// deterministically: documents are queued as loader messages, then
// processed in FIFO order with tasks assigned round-robin to instances and
// scheduled on each instance's least-loaded core. The store's capacity is
// shared by all fleet worker threads for the duration of the run (the
// DynamoDB saturation of Section 8.2).
//
// With Config.BulkLoad set, the driver runs the two-stage bulk pipeline
// instead: extractions are read ahead (bounded by Config.PipelineDepth) and
// fed to a cross-document index.BulkLoader, and each document's pro-rata
// upload share is modeled on an asynchronous upload stream per core — so
// extraction compute overlaps store I/O, Table 4's extract/upload split
// stays per-document, and the billed request count drops to the bulk
// loader's packing floor. Store contents are byte-identical either way.
func (w *Warehouse) IndexCorpusOn(fleet []*ec2.Instance, uris []string) (IndexReport, error) {
	var report IndexReport
	if len(fleet) == 0 {
		return report, fmt.Errorf("core: empty fleet")
	}
	workers := 0
	for _, in := range fleet {
		workers += in.Type.Cores
	}
	for i := 0; i < workers; i++ {
		w.store.RegisterClient()
	}
	defer func() {
		for i := 0; i < workers; i++ {
			w.store.UnregisterClient()
		}
	}()

	for _, uri := range uris {
		if _, _, err := w.queues.Send(LoaderQueue, uri); err != nil {
			return report, err
		}
	}
	ec2.FleetLevel(fleet)
	start := ec2.FleetElapsed(fleet)

	perExtract := make(map[*ec2.Instance]time.Duration)
	perUpload := make(map[*ec2.Instance]time.Duration)
	var err error
	if w.bulkLoad {
		err = w.bulkIndexLoop(fleet, &report, perExtract, perUpload)
	} else {
		err = w.perDocIndexLoop(fleet, &report, perExtract, perUpload)
	}
	if err != nil {
		return report, err
	}
	ec2.FleetLevel(fleet)
	report.Total = ec2.FleetElapsed(fleet) - start
	// Per-machine elapsed attribution: a machine's cores work in parallel,
	// so its extraction (upload) elapsed is the summed task time divided
	// by its core count; the report averages over machines.
	for _, in := range fleet {
		report.AvgExtract += perExtract[in] / time.Duration(in.Type.Cores)
		report.AvgUpload += perUpload[in] / time.Duration(in.Type.Cores)
	}
	report.AvgExtract /= time.Duration(len(fleet))
	report.AvgUpload /= time.Duration(len(fleet))
	return report, nil
}

// perDocIndexLoop is the classic driver loop: each document is extracted
// and written in its own per-document, per-table batches, serially on its
// assigned instance core.
func (w *Warehouse) perDocIndexLoop(fleet []*ec2.Instance, report *IndexReport, perExtract, perUpload map[*ec2.Instance]time.Duration) error {
	for i := 0; ; i++ {
		msg, rtt, err := w.queues.Receive(LoaderQueue, 5*time.Minute)
		if err != nil {
			return err
		}
		if msg == nil {
			return nil
		}
		in := fleet[i%len(fleet)]
		dsp := w.tracer.Start(obs.SpanIndexDoc)
		dsp.SetAttr("uri", msg.Body)
		res, err := w.indexDocument(in, msg.Body, dsp)
		if err != nil {
			// Release the lease before bailing out: the message becomes
			// visible again immediately, so a rerun of the driver (or a
			// live worker) can pick it up instead of waiting out the
			// 5-minute lease on a message nobody is processing.
			dsp.SetError(err)
			dsp.End()
			w.nackLoaderMessage(msg.Receipt)
			return fmt.Errorf("core: indexing %s: %w", msg.Body, err)
		}
		drtt, err := w.deleteLoaderMessage(msg.Receipt)
		if err != nil {
			dsp.SetError(err)
			dsp.End()
			w.nackLoaderMessage(msg.Receipt)
			return err
		}
		in.Run(rtt + res.ExtractTime + res.UploadTime + drtt)
		dsp.SetModeled(rtt + res.ExtractTime + res.UploadTime + drtt)
		dsp.End()
		report.Docs++
		report.DataBytes += res.DocBytes
		report.Entries += res.Stats.Entries
		report.Items += res.Stats.Items
		report.Requests += res.Stats.Requests
		perExtract[in] += res.ExtractTime
		perUpload[in] += res.UploadTime
	}
}

// bulkDocsLimit is the effective live-worker group size.
func (w *Warehouse) bulkDocsLimit() int {
	if w.bulkFlushDocs > 0 {
		return w.bulkFlushDocs
	}
	return 8
}

// pipeDepth is the effective extraction read-ahead of the bulk driver.
func (w *Warehouse) pipeDepth() int {
	if w.pipelineDepth > 0 {
		return w.pipelineDepth
	}
	return 4
}

// indexTask is one loader message moving through the bulk pipeline.
type indexTask struct {
	msg  *sqs.Message
	rtt  time.Duration
	in   *ec2.Instance
	span *obs.Span // index.doc root; ended when the document settles
	res  IndexTaskResult
	ex   *index.Extraction
	err  error
}

// inflightDoc is a task whose extraction has been scheduled and whose items
// sit (at least partly) in the bulk loader.
type inflightDoc struct {
	t    *indexTask
	core int
	// ready is the task's core occupancy right after its extraction was
	// scheduled: the earliest modeled instant its upload may start.
	ready time.Duration
}

// bulkIndexLoop is the two-stage bulk driver. Stage one (optionally read
// ahead on a goroutine, bounded by pipeDepth) receives loader messages and
// runs the EC2-side extraction; stage two — always the calling goroutine,
// in strict FIFO order — feeds extractions to a cross-document BulkLoader,
// deletes messages as their documents complete, and accounts the modeled
// time.
//
// Modeled overlap: each document's extraction is scheduled on its
// instance's least-loaded core, and its pro-rata upload share is appended
// to a per-core *upload stream* that starts no earlier than the document's
// extraction end — the asynchronous uploader of a two-stage worker. After
// the last document, each core is raised to its upload stream's end, so a
// core's elapsed time is max(extraction stream, upload stream): upload I/O
// hides behind extraction compute instead of serializing with it.
//
// Every modeled quantity is computed from payload sizes and FIFO positions,
// never from real goroutine timing, so results, modeled times and billing
// are identical at any pipeline depth. When a chaos layer is configured the
// read-ahead goroutine is skipped (depth one, inline) so that the injector's
// seeded fault schedule is also consumed in a deterministic order.
func (w *Warehouse) bulkIndexLoop(fleet []*ec2.Instance, report *IndexReport, perExtract, perUpload map[*ec2.Instance]time.Duration) error {
	produce := func(i int) *indexTask {
		msg, rtt, err := w.queues.Receive(LoaderQueue, 5*time.Minute)
		if err != nil {
			return &indexTask{err: err}
		}
		if msg == nil {
			return nil
		}
		t := &indexTask{msg: msg, rtt: rtt, in: fleet[i%len(fleet)]}
		t.span = w.tracer.Start(obs.SpanIndexDoc)
		t.span.SetAttr("uri", msg.Body)
		t.res, t.ex, _, t.err = w.extractDocument(t.in, msg.Body, t.span)
		return t
	}
	var next func() *indexTask
	if depth := w.pipeDepth(); depth > 1 && w.chaosInj == nil {
		ch := make(chan *indexTask, depth-1)
		go func() {
			defer close(ch)
			for i := 0; ; i++ {
				t := produce(i)
				if t == nil {
					return
				}
				ch <- t
				if t.err != nil {
					return
				}
			}
		}()
		next = func() *indexTask { return <-ch }
	} else {
		i := 0
		next = func() *indexTask { t := produce(i); i++; return t }
	}

	loader := index.NewBulkLoader(w.store, index.BulkOptions{Obs: w.reg}, w.cache)
	var queue []*inflightDoc
	uploadEnd := make(map[*ec2.Instance][]time.Duration)
	nackAll := func() {
		for _, fl := range queue {
			w.nackLoaderMessage(fl.t.msg.Receipt)
			fl.t.span.End()
		}
	}
	// complete settles documents the loader released, in FIFO order:
	// delete the loader message, extend the core's upload stream by the
	// document's pro-rata share, and fold its stats into the report.
	complete := func(done []index.DocLoad) error {
		for _, dl := range done {
			if len(queue) == 0 || queue[0].t.msg.Body != dl.URI {
				return fmt.Errorf("core: bulk loader released %q out of FIFO order", dl.URI)
			}
			fl := queue[0]
			queue = queue[1:]
			usp := fl.t.span.Child(obs.SpanUpload)
			usp.SetModeled(dl.Upload)
			usp.End()
			w.met.indexUpload.ObserveModeled(dl.Upload)
			drtt, err := w.deleteLoaderMessage(fl.t.msg.Receipt)
			if err != nil {
				fl.t.span.SetError(err)
				fl.t.span.End()
				w.nackLoaderMessage(fl.t.msg.Receipt)
				return err
			}
			in := fl.t.in
			in.RunOn(fl.core, drtt)
			lanes := uploadEnd[in]
			if lanes == nil {
				lanes = make([]time.Duration, in.Type.Cores)
				uploadEnd[in] = lanes
			}
			end := lanes[fl.core]
			if fl.ready > end {
				end = fl.ready
			}
			lanes[fl.core] = end + dl.Upload
			fl.t.span.SetModeled(fl.t.rtt + fl.t.res.ExtractTime + dl.Upload + drtt)
			fl.t.span.End()
			perUpload[in] += dl.Upload
			report.Docs++
			report.DataBytes += fl.t.res.DocBytes
			report.Entries += dl.Stats.Entries
			report.Items += dl.Stats.Items
			report.Requests += dl.Stats.Requests
		}
		return nil
	}

	for {
		t := next()
		if t == nil {
			break
		}
		if t.err != nil {
			if t.msg != nil {
				w.nackLoaderMessage(t.msg.Receipt)
			}
			t.span.SetError(t.err)
			t.span.End()
			nackAll()
			if t.msg != nil {
				return fmt.Errorf("core: indexing %s: %w", t.msg.Body, t.err)
			}
			return t.err
		}
		core := t.in.RunScheduled(t.rtt + t.res.ExtractTime)
		perExtract[t.in] += t.res.ExtractTime
		queue = append(queue, &inflightDoc{t: t, core: core, ready: t.in.TL.Lane(core)})
		done, err := loader.Add(t.ex)
		if cerr := complete(done); err == nil {
			err = cerr
		}
		if err != nil {
			nackAll()
			return fmt.Errorf("core: bulk indexing %s: %w", t.msg.Body, err)
		}
	}
	done, err := loader.Close()
	if cerr := complete(done); err == nil {
		err = cerr
	}
	if err != nil {
		nackAll()
		return fmt.Errorf("core: bulk indexing: %w", err)
	}
	// Drain the upload streams: raise each core to its upload end, so its
	// elapsed time is the maximum of its extraction and upload streams.
	for _, in := range fleet {
		for c, end := range uploadEnd[in] {
			if occ := in.TL.Lane(c); end > occ {
				in.RunOn(c, end-occ)
			}
		}
	}
	return nil
}

func (w *Warehouse) deleteLoaderMessage(receipt string) (time.Duration, error) {
	return w.queues.Delete(LoaderQueue, receipt)
}

// nackLoaderMessage releases a leased loader message back to visible. A
// stale receipt (the lease already expired or another receiver holds the
// message) is fine: the message is already available again.
func (w *Warehouse) nackLoaderMessage(receipt string) {
	w.queues.ChangeVisibility(LoaderQueue, receipt, 0)
}

// RemoveDocument drops a document from the warehouse: its index entries
// first (while the file is still readable), then the file itself. This is
// an extension beyond the paper's append-only warehouse; the modeled work
// is scheduled on the given instance.
//
// On a mutable corpus the removal is manifest-driven: the document's
// retained contribution is tombstoned in the write buffer as one atomic
// version bump — no fetch, no re-extraction — and queries pinned before
// the bump keep seeing the document until they drain. Mutable removal is
// idempotent: re-running a crashed removal (index already tombstoned, or
// file already deleted) converges to the same fully removed state, like
// S3's own delete of a missing key.
func (w *Warehouse) RemoveDocument(in *ec2.Instance, uri string) error {
	if w.corpus != nil {
		w.corpus.Remove(uri)
		drop, err := w.files.Delete(Bucket, DocKey(uri))
		if err != nil {
			return fmt.Errorf("core: removing %s: %w", uri, err)
		}
		in.Run(drop)
		return w.maybeCompact(in)
	}
	obj, fetch, err := w.files.Get(Bucket, DocKey(uri))
	if err != nil {
		return fmt.Errorf("core: removing %s: %w", uri, err)
	}
	doc, err := xmltree.Parse(uri, obj.Data)
	if err != nil {
		return err
	}
	parse := in.ComputeDuration(int64(len(obj.Data)), w.Perf.ParseBytesPerECUSec)
	dels, _, err := index.DeleteDocument(w.store, w.Strategy, doc, w.indexOptions(), w.cache)
	if err != nil {
		return err
	}
	drop, err := w.files.Delete(Bucket, DocKey(uri))
	if err != nil {
		return err
	}
	in.Run(fetch + parse + dels + drop)
	return nil
}
