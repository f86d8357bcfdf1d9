package core

import (
	"sync"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/index"
	"repro/internal/obs"
)

// This file implements document submission (steps 1-3 of Figure 1) and
// the live worker loops of the two modules. Workers poll their queue,
// renew their message lease while working, and delete the message only on
// success — so a crashed instance's work is redelivered to another worker
// (the fault-tolerance mechanism of Section 3).

// SubmitDocument stores a document in the file store and enqueues a
// loading request (steps 1-3).
func (w *Warehouse) SubmitDocument(uri string, data []byte) error {
	sp := w.tracer.Start(obs.SpanSubmitDocument)
	sp.SetAttr("uri", uri)
	defer sp.End()
	put, err := w.files.Put(Bucket, DocKey(uri), data, nil)
	if err != nil {
		sp.SetError(err)
		return err
	}
	_, send, err := w.queues.Send(LoaderQueue, uri)
	sp.SetModeled(put + send)
	sp.SetError(err)
	if err == nil {
		w.met.submitDocs.Inc()
	}
	return err
}

// Worker is a live module worker bound to one virtual instance.
type Worker struct {
	Instance *ec2.Instance

	stop    chan struct{}
	crashed chan struct{}
	done    sync.WaitGroup

	mu          sync.Mutex
	processed   int
	failures    int
	redelivered int
}

// Processed reports how many messages the worker completed.
func (wk *Worker) Processed() int {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	return wk.processed
}

// Failures reports how many messages the worker failed on.
func (wk *Worker) Failures() int {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	return wk.failures
}

// Redeliveries reports how many of the worker's received messages were
// redeliveries (receive count above one) — deliveries absorbed by the
// idempotent write path after crashes, lease expiries or duplicate
// delivery.
func (wk *Worker) Redeliveries() int {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	return wk.redelivered
}

// noteReceive records a delivery; redeliveries also bump the given
// registry counter (nil-safe).
func (wk *Worker) noteReceive(receiveCount int, redeliveries *obs.Counter) {
	if receiveCount > 1 {
		wk.mu.Lock()
		wk.redelivered++
		wk.mu.Unlock()
		redeliveries.Inc()
	}
}

// Stop drains the worker gracefully: it finishes (and acknowledges) its
// current message, then exits.
func (wk *Worker) Stop() {
	select {
	case <-wk.stop:
	default:
		close(wk.stop)
	}
	wk.done.Wait()
}

// Crash kills the worker abruptly: its current message is neither finished
// nor deleted, so the lease will expire and another worker takes over.
func (wk *Worker) Crash() {
	select {
	case <-wk.crashed:
	default:
		close(wk.crashed)
	}
	wk.done.Wait()
}

func newWorker(in *ec2.Instance) *Worker {
	return &Worker{Instance: in, stop: make(chan struct{}), crashed: make(chan struct{})}
}

func (wk *Worker) stopped() bool {
	select {
	case <-wk.stop:
		return true
	case <-wk.crashed:
		return true
	default:
		return false
	}
}

// WorkerOptions tunes the live loops.
type WorkerOptions struct {
	// Visibility is the message lease duration; it is renewed at
	// Visibility/2 while processing. Default 2s (tests use shorter).
	Visibility time.Duration
	// Poll is the long-poll duration of an idle worker. Default 100ms.
	Poll time.Duration
	// WorkDelay artificially stretches real processing time (tests use it
	// to exercise lease expiry and crashes mid-flight).
	WorkDelay time.Duration
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Visibility <= 0 {
		o.Visibility = 2 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = 100 * time.Millisecond
	}
	return o
}

// StartIndexer launches the indexing module on an instance (steps 4-6).
// With Config.BulkLoad set, the worker accumulates a group of loader
// messages (holding all their leases) and ships their items through a
// cross-document bulk loader; see bulkIndexerLoop.
func (w *Warehouse) StartIndexer(in *ec2.Instance, opts WorkerOptions) *Worker {
	opts = opts.withDefaults()
	wk := newWorker(in)
	wk.done.Add(1)
	go func() {
		defer wk.done.Done()
		w.store.RegisterClient()
		defer w.store.UnregisterClient()
		if w.bulkLoad {
			w.bulkIndexerLoop(wk, in, opts)
			return
		}
		for !wk.stopped() {
			msg, rtt, err := w.queues.ReceiveWait(LoaderQueue, opts.Visibility, opts.Poll)
			if err != nil || msg == nil {
				continue
			}
			wk.noteReceive(msg.ReceiveCount, w.met.workerRedeliveries)
			dsp := w.tracer.Start(obs.SpanIndexDoc)
			dsp.SetAttr("uri", msg.Body)
			stopRenew := w.renewLease(wk, LoaderQueue, msg.Receipt, opts.Visibility)
			if opts.WorkDelay > 0 {
				time.Sleep(opts.WorkDelay)
			}
			if wk.crashedNow() {
				stopRenew()
				dsp.End()
				return
			}
			res, err := w.indexDocument(in, msg.Body, dsp)
			stopRenew()
			if wk.crashedNow() {
				dsp.End()
				return
			}
			if err != nil {
				dsp.SetError(err)
				dsp.End()
				wk.mu.Lock()
				wk.failures++
				wk.mu.Unlock()
				w.met.workerFailures.Inc()
				continue // lease will expire; the message is retried
			}
			if _, err := w.queues.Delete(LoaderQueue, msg.Receipt); err != nil {
				// Lease lost: another worker owns the message now; our
				// index writes are idempotent at the entry level.
				dsp.End()
				continue
			}
			in.Run(rtt + res.ExtractTime + res.UploadTime)
			dsp.SetModeled(rtt + res.ExtractTime + res.UploadTime)
			dsp.End()
			wk.mu.Lock()
			wk.processed++
			wk.mu.Unlock()
			w.met.workerProcessed.Inc()
		}
	}()
	return wk
}

// heldMessage is one loader message a bulk indexing worker is sitting on:
// extracted, its items in the group's bulk loader, its lease being renewed
// until the group flushes.
type heldMessage struct {
	receipt   string
	rtt       time.Duration
	res       IndexTaskResult
	span      *obs.Span // index.doc root; ended at settle or abandon
	stopRenew func()
	settled   bool // deleted (or given up on) before the group flush
}

// bulkIndexerLoop is the live indexing worker in bulk mode. It accumulates
// up to Config.BulkFlushDocs messages per group — extracting each document
// as it arrives and feeding the extraction to a shared BulkLoader, while a
// lease renewer per message keeps the whole group invisible — then closes
// the loader and only deletes a message once its document's items are
// durably flushed. Fault semantics compose with the §5d failure model
// exactly like the per-document worker's:
//
//   - a document the loader completes early (its batches filled) is deleted
//     as soon as Add reports it, shrinking the at-risk window;
//   - an extraction failure skips the document (no delete): its lease
//     expires and the message is redelivered, eventually dead-lettered;
//   - a flush failure abandons the whole group without deleting: every
//     message is redelivered, and the content-derived range keys make the
//     re-extracted writes overwrite whatever part of the batch landed;
//   - a crash stops the renewers mid-group, with the same redelivery path.
//
// An idle receive (nil message) force-flushes a partial group, so held
// messages never outlive the queue's quiet period; a graceful Stop flushes
// the final group on the way out.
func (w *Warehouse) bulkIndexerLoop(wk *Worker, in *ec2.Instance, opts WorkerOptions) {
	var (
		loader *index.BulkLoader
		group  []*heldMessage
	)
	reset := func() {
		loader = index.NewBulkLoader(w.store, index.BulkOptions{Obs: w.reg}, w.cache)
		group = nil
	}
	reset()
	// settle deletes the messages of completed documents, charging the
	// instance for their queue round trips and their share of the modeled
	// work. DocLoads arrive in Add order, which is the group's order.
	next := 0
	settle := func(done []index.DocLoad) {
		for _, dl := range done {
			if next >= len(group) {
				return // defensive; cannot happen with FIFO release
			}
			h := group[next]
			next++
			h.stopRenew()
			h.settled = true
			usp := h.span.Child(obs.SpanUpload)
			usp.SetModeled(dl.Upload)
			usp.End()
			w.met.indexUpload.ObserveModeled(dl.Upload)
			if _, err := w.queues.Delete(LoaderQueue, h.receipt); err != nil {
				// Lease lost: another worker owns the message; our writes
				// are idempotent, so its redelivery converges.
				h.span.End()
				continue
			}
			in.Run(h.rtt + h.res.ExtractTime + dl.Upload)
			h.span.SetModeled(h.rtt + h.res.ExtractTime + dl.Upload)
			h.span.End()
			wk.mu.Lock()
			wk.processed++
			wk.mu.Unlock()
			w.met.workerProcessed.Inc()
		}
	}
	abandon := func() {
		for _, h := range group {
			if !h.settled {
				h.stopRenew()
				h.span.End()
				wk.mu.Lock()
				wk.failures++
				wk.mu.Unlock()
				w.met.workerFailures.Inc()
			}
		}
		reset()
		next = 0
	}
	flushGroup := func() {
		if len(group) == 0 {
			return
		}
		done, err := loader.Close()
		settle(done)
		if err != nil {
			abandon() // unsettled messages redeliver; writes are idempotent
			return
		}
		reset()
		next = 0
	}
	defer func() {
		// On a crash the renewers have already quit (they watch wk.crashed)
		// and the leases lapse; on a graceful stop the group below was
		// flushed and this is a no-op.
		for _, h := range group {
			if !h.settled {
				h.stopRenew()
			}
		}
	}()
	for !wk.stopped() {
		msg, rtt, err := w.queues.ReceiveWait(LoaderQueue, opts.Visibility, opts.Poll)
		if err != nil {
			continue
		}
		if msg == nil {
			flushGroup() // idle: do not sit on held leases
			continue
		}
		wk.noteReceive(msg.ReceiveCount, w.met.workerRedeliveries)
		dsp := w.tracer.Start(obs.SpanIndexDoc)
		dsp.SetAttr("uri", msg.Body)
		stopRenew := w.renewLease(wk, LoaderQueue, msg.Receipt, opts.Visibility)
		if opts.WorkDelay > 0 {
			time.Sleep(opts.WorkDelay)
		}
		if wk.crashedNow() {
			stopRenew()
			dsp.End()
			return
		}
		res, ex, _, err := w.extractDocument(in, msg.Body, dsp)
		if wk.crashedNow() {
			stopRenew()
			dsp.End()
			return
		}
		if err != nil {
			stopRenew()
			dsp.SetError(err)
			dsp.End()
			wk.mu.Lock()
			wk.failures++
			wk.mu.Unlock()
			w.met.workerFailures.Inc()
			continue // lease will expire; the message is retried
		}
		group = append(group, &heldMessage{receipt: msg.Receipt, rtt: rtt, res: res, span: dsp, stopRenew: stopRenew})
		done, err := loader.Add(ex)
		settle(done)
		if wk.crashedNow() {
			return
		}
		if err != nil {
			abandon()
			continue
		}
		if len(group) >= w.bulkDocsLimit() {
			flushGroup()
		}
	}
	if !wk.crashedNow() {
		flushGroup() // graceful stop: ship what we hold
	}
}

// StartQueryProcessor launches the query-processor module on an instance
// (steps 9-15).
func (w *Warehouse) StartQueryProcessor(in *ec2.Instance, opts WorkerOptions) *Worker {
	opts = opts.withDefaults()
	wk := newWorker(in)
	wk.done.Add(1)
	go func() {
		defer wk.done.Done()
		for !wk.stopped() {
			msg, _, err := w.queues.ReceiveWait(QueryQueue, opts.Visibility, opts.Poll)
			if err != nil || msg == nil {
				continue
			}
			wk.noteReceive(msg.ReceiveCount, w.met.workerRedeliveries)
			stopRenew := w.renewLease(wk, QueryQueue, msg.Receipt, opts.Visibility)
			if opts.WorkDelay > 0 {
				time.Sleep(opts.WorkDelay)
			}
			if wk.crashedNow() {
				stopRenew()
				return
			}
			root := w.tracer.Start(obs.SpanQuery)
			resp, stats, perr := w.answerQuery(in, msg.Body, root, nil)
			root.SetAttr("id", resp.ID)
			root.SetModeled(stats.ResponseTime)
			root.SetError(perr)
			root.End()
			stopRenew()
			if wk.crashedNow() {
				return
			}
			if err := w.respond(resp, msg.Receipt); err != nil {
				continue
			}
			wk.mu.Lock()
			if perr != nil {
				wk.failures++
				w.met.workerFailures.Inc()
			} else {
				wk.processed++
				w.met.workerProcessed.Inc()
			}
			wk.mu.Unlock()
		}
	}()
	return wk
}

func (wk *Worker) crashedNow() bool {
	select {
	case <-wk.crashed:
		return true
	default:
		return false
	}
}

// renewLease keeps a message invisible while the worker processes it,
// renewing at half the visibility period. The returned function stops the
// renewal loop.
func (w *Warehouse) renewLease(wk *Worker, queue, receipt string, visibility time.Duration) func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(visibility / 2)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-wk.crashed:
				return // a crashed instance stops renewing: the lease expires
			case <-t.C:
				if _, err := w.queues.ChangeVisibility(queue, receipt, visibility); err != nil {
					return
				}
				w.met.leaseRenewals.Inc()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stop)
			wg.Wait()
		})
	}
}
