package kv_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/meter"
	"repro/internal/resilience"
)

// Satellite regression: when the modeled deadline lands inside a jittered
// backoff wait, Retry must charge only the slice up to the deadline and
// stop — not complete the wait and re-attempt.
func TestRetryStopsAtModeledDeadlineMidBackoff(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	if err := base.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	faulty := &chaos.EveryNth{Store: base, FailEvery: 1} // every op throttled
	retry := kv.NewRetry(faulty)
	// The first backoff draw is uniform in (0, 10s] — far beyond the 30ms
	// deadline, so the deadline cuts mid-backoff.
	retry.BaseBackoff = 10 * time.Second
	retry.MaxBackoff = 10 * time.Second

	deadline := 30 * time.Millisecond
	ctx := resilience.NewContext(context.Background(), resilience.NewBudget(deadline, -1))
	_, d, err := retry.GetContext(ctx, "t", "k")
	if !errors.Is(err, resilience.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("modeled deadline error must match context.DeadlineExceeded, got %v", err)
	}
	if d != deadline {
		t.Fatalf("charged %v, want exactly the %v headroom — not the full jittered backoff", d, deadline)
	}
	if got := faulty.Injected(); got != 1 {
		t.Fatalf("store saw %d attempts, want 1 (no retry after the deadline)", got)
	}
	if st := retry.RetryStats(); st.Retries != 0 {
		t.Fatalf("Retries = %d, want 0 — the cut backoff is not a completed retry", st.Retries)
	}
}

// cancelingStore cancels the caller's context from inside a failing Get,
// modeling a cancellation that lands while Retry would sit out its backoff.
type cancelingStore struct {
	kv.Store
	cancel context.CancelFunc
	ops    int
}

func (c *cancelingStore) Get(table, hashKey string) ([]kv.Item, time.Duration, error) {
	c.ops++
	c.cancel()
	return nil, 5 * time.Millisecond, kv.ErrThrottled
}

// Satellite regression: a context cancelled mid-operation makes Retry
// return immediately — no backoff charged, no further attempts.
func TestRetryReturnsImmediatelyOnCancel(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	if err := base.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &cancelingStore{Store: base, cancel: cancel}
	retry := kv.NewRetry(cs)
	retry.BaseBackoff = 10 * time.Second // a completed backoff would be visible
	retry.MaxBackoff = 10 * time.Second

	_, d, err := retry.GetContext(ctx, "t", "k")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d != 5*time.Millisecond {
		t.Fatalf("charged %v, want only the 5ms op time — no backoff after cancel", d)
	}
	if cs.ops != 1 {
		t.Fatalf("store saw %d attempts, want 1", cs.ops)
	}
	if st := retry.RetryStats(); st.Retries != 0 {
		t.Fatalf("Retries = %d, want 0", st.Retries)
	}

	// A context cancelled before the call never reaches the store.
	_, d, err = retry.GetContext(ctx, "t", "k")
	if !errors.Is(err, context.Canceled) || d != 0 || cs.ops != 1 {
		t.Fatalf("pre-cancelled call: d=%v ops=%d err=%v, want 0/1/Canceled", d, cs.ops, err)
	}
}

// The shared per-query retry-token pool bounds retries ACROSS calls, not
// per call: tokens consumed by one operation are gone for the next.
func TestRetrySharedBudgetTokens(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	if err := base.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	faulty := &chaos.EveryNth{Store: base, FailEvery: 1}
	retry := kv.NewRetry(faulty)
	retry.BaseBackoff = time.Millisecond

	budget := resilience.NewBudget(0, 1) // one retry token for the whole query
	ctx := resilience.NewContext(context.Background(), budget)
	_, _, err := retry.GetContext(ctx, "t", "k")
	if !errors.Is(err, resilience.ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	if got := faulty.Injected(); got != 2 {
		t.Fatalf("store saw %d attempts, want 2 (initial + the single budgeted retry)", got)
	}
	// The pool is empty now: the next call fails without any retry.
	_, _, err = retry.GetContext(ctx, "t", "k")
	if !errors.Is(err, resilience.ErrRetryBudget) {
		t.Fatalf("second call err = %v, want ErrRetryBudget", err)
	}
	if got := faulty.Injected(); got != 3 {
		t.Fatalf("store saw %d attempts, want 3 (one attempt, no tokens left)", got)
	}
}
