package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/index"
	"repro/internal/pricing"
	"repro/internal/workload"
)

// The sharding experiment checks that partitioning is free: hash-
// partitioning the index tables of one provisioned store must leave
// indexing time, workload time, request counts and the request bill exactly
// where the unsharded run put them (sharded batches ship as single
// multi-table requests). The table rows at shards 1/2/4/8 should be
// identical in those columns. The last column prices provisioning every
// partition at the default capacity.

// ShardRow is one shard count's measurements.
type ShardRow struct {
	Shards int

	// Warehouse run on a single provisioned store.
	IndexTotal   time.Duration // modeled end-to-end indexing time
	WorkloadTime time.Duration // summed modeled response time, XMark workload
	Calls        int64         // DynamoDB requests (puts + gets)
	RequestCost  pricing.USD   // billed DynamoDB request cost

	ProvisionedHr pricing.USD // provisioned throughput cost per hour
}

// RunShard builds a 2LUPI warehouse at each shard count and replays the
// XMark workload.
func RunShard(c *Corpus) ([]ShardRow, error) {
	book := pricing.Singapore2012()
	perf := dynamodb.DefaultPerf()
	var rows []ShardRow
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := core.Config{Strategy: index.TwoLUPI, IndexShards: shards}
		w, rep, _, err := BuildWarehouseCfg(c, cfg, 8, ec2.Large)
		if err != nil {
			return nil, err
		}
		proc := ec2.Launch(w.Ledger(), ec2.XL)
		var workloadTime time.Duration
		for _, q := range workload.XMark() {
			_, qs, err := w.RunQueryOn(proc, q.Text, true)
			if err != nil {
				return nil, err
			}
			workloadTime += qs.ResponseTime
		}
		u := w.Ledger().Snapshot()
		rows = append(rows, ShardRow{
			Shards:       shards,
			IndexTotal:   rep.Total,
			WorkloadTime: workloadTime,
			Calls:        u.Get(dynamodb.Backend, "put").Calls + u.Get(dynamodb.Backend, "get").Calls,
			RequestCost:  book.Bill(u).Line(dynamodb.Backend),
			ProvisionedHr: costmodel.ProvisionedThroughputCost(book, shards,
				float64(perf.WriteCapacityUnits), float64(perf.ReadCapacityUnits), 1),
		})
	}
	return rows, nil
}

// ShardTable renders the shards-vs-cost table.
func ShardTable(rows []ShardRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharding: partition invariance (2LUPI)\n")
	fmt.Fprintf(&b, "%-7s %12s %12s %8s %12s | %14s\n",
		"shards", "index", "workload", "calls", "req cost", "provisioned/h")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7d %12s %12s %8d %12s | %14s\n",
			r.Shards, r.IndexTotal.Round(time.Millisecond), r.WorkloadTime.Round(time.Millisecond),
			r.Calls, usd(r.RequestCost), usd(r.ProvisionedHr))
	}
	b.WriteString("partitioning leaves the left columns unchanged at any shard count;\n")
	b.WriteString("provisioning every partition multiplies the capacity bill by it.\n")
	return b.String()
}
