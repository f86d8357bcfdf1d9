package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// This file implements the front end of the query protocol (steps 7-8 and
// 16-18 of Figure 1): sendQuery enqueues a query message, collectResponse
// consumes the response a processor posted. Both drivers use them — the
// synchronous RunQueryOn, and the Frontend, which lets many concurrent
// clients share the live query processors through ONE receive loop on the
// response queue that routes each response to its waiting caller by query
// ID.

// QueryOutcome is what the front end hands back to the user.
type QueryOutcome struct {
	ID     string
	Result *engine.Result
	Err    error
}

// sendQuery enqueues query id (steps 7-8), traced under parent (a root
// span when parent is nil), and returns the send's modeled latency.
func (w *Warehouse) sendQuery(id, queryText string, useIndex bool, parent *obs.Span) (time.Duration, error) {
	sp := w.tracer.ChildOf(parent, obs.SpanSubmitQuery)
	sp.SetAttr("id", id)
	defer sp.End()
	body, _ := json.Marshal(queryMessage{ID: id, Query: queryText, Strategy: w.Strategy.Name(), NoIndex: !useIndex}) // plain fields: cannot fail
	_, send, err := w.queues.Send(QueryQueue, string(body))
	sp.SetModeled(send)
	sp.SetError(err)
	if err == nil {
		w.met.submitQueries.Inc()
	}
	return send, err
}

// collectResponse consumes a received response message its caller has
// matched to a waiting query (steps 16-18). It deletes the message first,
// so no later failure can leave it queued for another receiver, then maps
// a reported processing failure to ErrQueryFailed, or fetches the result
// object, meters its egress and decodes it. It returns the outcome with
// the modeled fetch time and the fetched byte count.
func (w *Warehouse) collectResponse(receipt string, resp responseMessage) (*QueryOutcome, time.Duration, int) {
	out := &QueryOutcome{ID: resp.ID}
	if _, err := w.queues.Delete(ResponseQueue, receipt); err != nil {
		out.Err = err
		return out, 0, 0
	}
	if resp.Error != "" {
		out.Err = fmt.Errorf("%w: %s", ErrQueryFailed, resp.Error)
		return out, 0, 0
	}
	obj, fetch, err := w.files.Get(Bucket, resp.ResultKey)
	if err != nil {
		out.Err = err
		return out, 0, 0
	}
	w.ledger.AddEgress(int64(len(obj.Data)))
	out.Result, out.Err = decodeResult(obj.Data)
	return out, fetch, len(obj.Data)
}

// Frontend multiplexes concurrent clients over the warehouse's query and
// response queues. Create with NewFrontend, issue queries with Do (or
// Submit + the returned channel), and Close when done. The Frontend must
// be the response queue's only consumer: it deletes every response no
// caller is waiting for, so a second Frontend, or a RunQueryOn running
// beside it, would lose answers.
type Frontend struct {
	w *Warehouse

	mu      sync.Mutex
	pending map[string]chan *QueryOutcome

	stop chan struct{}
	done sync.WaitGroup
}

// NewFrontend starts the response dispatcher and returns the front end.
func NewFrontend(w *Warehouse) *Frontend {
	f := &Frontend{
		w:       w,
		pending: make(map[string]chan *QueryOutcome),
		stop:    make(chan struct{}),
	}
	f.done.Add(1)
	go f.dispatch()
	return f
}

// Submit enqueues a query (steps 7-8) and returns its ID plus the channel
// its outcome will be delivered on (buffered; the dispatcher never blocks).
// The waiter is registered before the message is sent, so every response
// the dispatcher cannot route belongs to no live query.
func (f *Frontend) Submit(queryText string, useIndex bool) (string, <-chan *QueryOutcome, error) {
	id := f.w.nextQueryID()
	ch := make(chan *QueryOutcome, 1)
	f.mu.Lock()
	f.pending[id] = ch
	f.mu.Unlock()
	if _, err := f.w.sendQuery(id, queryText, useIndex, nil); err != nil {
		f.take(id)
		return "", nil, err
	}
	return id, ch, nil
}

// Do runs one query to completion: submit, wait for the routed response,
// return the outcome. A timeout forgets the query; its response, when it
// eventually arrives, is deleted like any other unroutable one.
func (f *Frontend) Do(queryText string, useIndex bool, timeout time.Duration) (*QueryOutcome, error) {
	id, ch, err := f.Submit(queryText, useIndex)
	if err != nil {
		return nil, err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case out := <-ch:
		return out, nil
	case <-t.C:
		f.take(id)
		return nil, fmt.Errorf("core: timed out waiting for result of %s", id)
	case <-f.stop:
		return nil, fmt.Errorf("core: frontend closed while waiting for %s", id)
	}
}

// Pending reports how many submitted queries are still awaiting responses.
func (f *Frontend) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pending)
}

// Close stops the dispatcher. In-flight waiters receive a frontend-closed
// error; the query processors keep draining the query queue independently.
func (f *Frontend) Close() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	f.done.Wait()
}

// take removes and returns the waiter of query id, or nil when no caller
// is waiting for it.
func (f *Frontend) take(id string) chan *QueryOutcome {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := f.pending[id]
	delete(f.pending, id)
	return ch
}

func (f *Frontend) dispatch() {
	defer f.done.Done()
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		m, _, err := f.w.queues.ReceiveWait(ResponseQueue, 30*time.Second, 100*time.Millisecond)
		if err != nil || m == nil {
			continue
		}
		var resp responseMessage
		var ch chan *QueryOutcome
		if json.Unmarshal([]byte(m.Body), &resp) == nil {
			ch = f.take(resp.ID)
		}
		if ch == nil {
			// Malformed, a duplicate from a redelivered query, or for a
			// query whose caller timed out: nobody will ever collect it. A
			// failed delete only lets it reappear, to be deleted again.
			_, _ = f.w.queues.Delete(ResponseQueue, m.Receipt)
			continue
		}
		out, _, _ := f.w.collectResponse(m.Receipt, resp)
		ch <- out
	}
}
