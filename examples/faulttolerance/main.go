// Faulttolerance: the resilience mechanism of Section 3, live.
//
// The warehouse's modules communicate through SQS-style queues with
// visibility leases: "if an instance fails to renew its lease on the
// message which had caused a task to start, the message becomes available
// again and another virtual instance will take over the job."
//
// This example starts two live indexer workers, crashes one mid-document,
// and shows the surviving worker draining the queue — including the
// abandoned message once its lease expires — after which a query verifies
// the index is complete.
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/xmark"
)

func main() {
	wh, err := core.New(core.Config{Strategy: index.LUP})
	if err != nil {
		log.Fatal(err)
	}
	docs := xmark.Paintings()
	for _, d := range docs {
		if err := wh.SubmitDocument(d.URI, d.Data); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("submitted %d documents; loader queue holds %d messages\n",
		len(docs), wh.Queues().Len(core.LoaderQueue))

	// A deliberately slow worker with a short lease: it will be holding a
	// message when we crash it.
	victim := wh.StartIndexer(ec2.Launch(wh.Ledger(), ec2.Large), core.WorkerOptions{
		Visibility: 80 * time.Millisecond,
		WorkDelay:  300 * time.Millisecond,
	})
	time.Sleep(100 * time.Millisecond)
	victim.Crash()
	fmt.Printf("crashed the first indexer mid-document (processed %d); its lease will expire\n",
		victim.Processed())

	rescuer := wh.StartIndexer(ec2.Launch(wh.Ledger(), ec2.Large), core.WorkerOptions{})
	deadline := time.Now().Add(15 * time.Second)
	for wh.Queues().Len(core.LoaderQueue) > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	rescuer.Stop()
	fmt.Printf("second indexer drained the queue (processed %d, queue now %d)\n",
		rescuer.Processed(), wh.Queues().Len(core.LoaderQueue))

	// Verify nothing was lost: the query must see every matching document.
	qp := wh.StartQueryProcessor(ec2.Launch(wh.Ledger(), ec2.XL), core.WorkerOptions{})
	defer qp.Stop()
	frontend := core.NewFrontend(wh)
	defer frontend.Close()
	out, err := frontend.Do(`//painting[/name{val}]`, true, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	if out.Err != nil {
		log.Fatal(out.Err)
	}
	fmt.Printf("query over the recovered index returned %d paintings — no document lost\n",
		len(out.Result.Rows))
}
