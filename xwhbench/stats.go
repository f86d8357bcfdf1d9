package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/meter"
)

// percentile returns the nearest-rank q-quantile of xs (sorted in place).
// Failed requests enter as +Inf, so they miss every latency limit.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a closed wall-clock span [start, end].
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// union returns the total length covered by the intervals: the busy time
// of a layer whose calls overlap, counted once.
func union(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start.After(cur.end) {
			total += cur.dur()
			cur = iv
			continue
		}
		if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	return total + cur.dur()
}

// usd prices ledger usage with the paper's price book. The invoice lines
// are summed in name order so equal usage always prices to the same float.
func usd(u meter.Usage) float64 {
	inv := book.Bill(u)
	names := make([]string, 0, len(inv.Lines))
	for n := range inv.Lines {
		names = append(names, n)
	}
	sort.Strings(names)
	var total float64
	for _, n := range names {
		total += float64(inv.Lines[n])
	}
	return total
}

// queryBill prices a served window's ledger delta with SQS charged three
// requests (send, receive, delete) per message sent. The other SQS calls
// depend on wall-clock timing rather than on the queries served: empty
// long-polls of idle workers, re-leases of responses that arrive before
// their caller registers, and a worker's delete of its query message,
// which can land after the caller already has the answer and so fall into
// the next window. The per-layer sqs.requests_per_query reports them all.
// Everything else (index and document reads, result writes, egress and the
// query processors' modeled instance time) is billed as recorded.
func queryBill(delta meter.Usage) float64 {
	ops := make(map[meter.Op]meter.Counts)
	for _, op := range delta.Ops() {
		ops[op] = delta.Get(op.Service, op.Name)
	}
	sends := delta.Get("sqs", "send").Calls
	for _, name := range []string{"receive", "delete"} {
		ops[meter.Op{Service: "sqs", Name: name}] = meter.Counts{Calls: sends, Units: sends}
	}
	delete(ops, meter.Op{Service: "sqs", Name: "changeVisibility"})
	inst := make(map[string]float64)
	for _, t := range delta.InstanceTypes() {
		inst[t] = delta.InstanceSeconds(t)
	}
	return usd(meter.NewUsage(ops, inst, delta.EgressBytes()))
}

// goRuntime is a reading of the Go runtime counters the benchmark tracks.
type goRuntime struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() goRuntime {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return goRuntime{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// liveHeapBytes reports the heap held by live objects after a forced GC.
func liveHeapBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
