package core

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/cloud/sqs"
	"repro/internal/index"
)

// awaitOutcome waits up to timeout for an outcome delivered by
// Frontend.Submit's channel.
func awaitOutcome(t *testing.T, ch <-chan *QueryOutcome, timeout time.Duration) *QueryOutcome {
	t.Helper()
	select {
	case out := <-ch:
		return out
	case <-time.After(timeout):
		t.Fatalf("no outcome within %v", timeout)
		return nil
	}
}

func startFrontendWarehouse(t *testing.T) (*Warehouse, *Frontend, *Worker) {
	t.Helper()
	w := newWarehouse(t, index.LU)
	fleet := []*ec2.Instance{ec2.Launch(w.ledger, ec2.Large)}
	loadPaintings(t, w, fleet)
	qp := w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.XL), WorkerOptions{})
	return w, NewFrontend(w), qp
}

// Concurrent Do calls share one dispatcher: every caller gets its own
// query's outcome, and nothing is left pending afterwards.
func TestFrontendConcurrentDo(t *testing.T) {
	_, f, qp := startFrontendWarehouse(t)
	defer qp.Stop()
	defer f.Close()

	const clients = 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := f.Do(`//painting[/name{val}]`, true, 20*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = out.Err
			if out.Err == nil && len(out.Result.Rows) == 0 {
				t.Errorf("client %d: empty result", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if n := f.Pending(); n != 0 {
		t.Fatalf("Pending = %d after all outcomes delivered", n)
	}
}

// A timed-out query is abandoned: Do returns the timeout error, Pending
// drops to zero, and the late response is consumed by the dispatcher so
// the next query is unaffected.
func TestFrontendTimeoutAbandons(t *testing.T) {
	_, f, qp := startFrontendWarehouse(t)
	defer qp.Stop()
	defer f.Close()

	_, err := f.Do(`//painting[/name{val}]`, true, 0)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("Do with zero timeout = %v, want timeout error", err)
	}
	if n := f.Pending(); n != 0 {
		t.Fatalf("Pending = %d after abandon", n)
	}
	// The abandoned query's response must not poison this one.
	out, err := f.Do(`//museum[/name{val}]`, true, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != nil {
		t.Fatal(out.Err)
	}
}

// Close wakes blocked waiters with a frontend-closed error.
func TestFrontendCloseUnblocksWaiters(t *testing.T) {
	w := newWarehouse(t, index.LU)
	fleet := []*ec2.Instance{ec2.Launch(w.ledger, ec2.Large)}
	loadPaintings(t, w, fleet)
	// No query processor: the submitted query never gets a response.
	f := NewFrontend(w)
	errCh := make(chan error, 1)
	go func() {
		_, err := f.Do(`//painting`, true, time.Minute)
		errCh <- err
	}()
	// Let the submit land before closing.
	for f.Pending() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	f.Close()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("Do after Close = %v, want frontend-closed error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not released by Close")
	}
}

// A response no caller waits for — here a duplicate for an answered query,
// as a redelivered query message produces — is deleted on arrival rather
// than re-leased: the response queue drains, and an idle front end makes
// no further lease calls.
func TestFrontendDeletesUnroutableResponse(t *testing.T) {
	w, f, qp := startFrontendWarehouse(t)
	defer qp.Stop()
	defer f.Close()

	out, err := f.Do(`//painting[/name{val}]`, true, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	dup, _ := json.Marshal(responseMessage{ID: out.ID, ResultKey: resultsPrefix + out.ID})
	if _, _, err := w.queues.Send(ResponseQueue, string(dup)); err != nil {
		t.Fatal(err)
	}
	before := w.Ledger().Snapshot().Get(sqs.Backend, "changeVisibility").Calls
	time.Sleep(time.Second)
	if n := w.queues.Len(ResponseQueue); n != 0 {
		t.Errorf("response queue holds %d messages, want the duplicate deleted", n)
	}
	if n := w.Ledger().Snapshot().Get(sqs.Backend, "changeVisibility").Calls - before; n != 0 {
		t.Errorf("%d sqs.changeVisibility calls over an idle second, want 0", n)
	}
}
