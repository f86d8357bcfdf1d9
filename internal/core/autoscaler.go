package core

import (
	"sync"
	"time"

	"repro/internal/cloud/ec2"
)

// AutoScaler implements the elasticity the paper's architecture is built
// around (Section 3: "the architecture described above exploits the
// elastic scaling of the cloud, for instance increasing and decreasing the
// number of virtual machines running each module"): a control loop watches
// a module's request queue and keeps enough live workers running to hold
// the backlog near a target, within [Min, Max] instances.
//
// Scaling out launches a fresh EC2 instance and starts a worker on it;
// scaling in stops a worker gracefully (it finishes its current message)
// and terminates its instance, so billing stops too.

// ModuleKind selects which module the scaler manages.
type ModuleKind uint8

const (
	// IndexerModule scales the indexing module on the loader queue.
	IndexerModule ModuleKind = iota
	// QueryProcessorModule scales the query processor on the query queue.
	QueryProcessorModule
)

func (k ModuleKind) queue() string {
	if k == IndexerModule {
		return LoaderQueue
	}
	return QueryQueue
}

// AutoScalerConfig tunes the control loop.
type AutoScalerConfig struct {
	Module ModuleKind
	// Min and Max bound the fleet (defaults 1 and 8).
	Min, Max int
	// BacklogPerWorker is the queue depth one worker is expected to
	// absorb; the desired fleet is ceil(backlog / BacklogPerWorker)
	// clamped to [Min, Max] (default 4).
	BacklogPerWorker int
	// Interval is the control period (default 250ms; tests use less).
	Interval time.Duration
	// InstanceType for new workers (default large).
	InstanceType ec2.InstanceType
	// Worker options passed to started workers.
	Worker WorkerOptions
}

func (c AutoScalerConfig) withDefaults() AutoScalerConfig {
	if c.Min < 1 {
		c.Min = 1
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.BacklogPerWorker < 1 {
		c.BacklogPerWorker = 4
	}
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.InstanceType.Name == "" {
		c.InstanceType = ec2.Large
	}
	return c
}

// AutoScaler is a running control loop.
type AutoScaler struct {
	w   *Warehouse
	cfg AutoScalerConfig

	mu        sync.Mutex
	workers   []*Worker
	instances []*ec2.Instance
	peak      int
	retiring  []*Worker // taken out of the fleet, Stop not yet returned
	retired   int       // processed counts of workers already stopped

	stop chan struct{}
	done sync.WaitGroup
}

// StartAutoScaler launches the control loop with Min workers already
// running.
func (w *Warehouse) StartAutoScaler(cfg AutoScalerConfig) *AutoScaler {
	cfg = cfg.withDefaults()
	a := &AutoScaler{w: w, cfg: cfg, stop: make(chan struct{})}
	for i := 0; i < cfg.Min; i++ {
		a.scaleOutLocked()
	}
	a.peak = cfg.Min
	a.done.Add(1)
	go a.loop()
	return a
}

// Workers reports the current fleet size.
func (a *AutoScaler) Workers() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.workers)
}

// Peak reports the largest fleet the scaler reached.
func (a *AutoScaler) Peak() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// Processed sums the messages completed by all workers ever started. A
// worker being stopped still counts through its own counter until its
// Stop returns and the count moves to retired, so the sum never dips.
func (a *AutoScaler) Processed() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := a.retired
	for _, wk := range a.workers {
		total += wk.Processed()
	}
	for _, wk := range a.retiring {
		total += wk.Processed()
	}
	return total
}

// Stop winds the whole fleet down and stops the loop.
func (a *AutoScaler) Stop() {
	close(a.stop)
	a.done.Wait()
	a.mu.Lock()
	workers := a.workers
	instances := a.instances
	a.workers, a.instances = nil, nil
	a.retiring = append(a.retiring, workers...)
	a.mu.Unlock()
	for _, wk := range workers {
		wk.Stop()
		a.mu.Lock()
		a.retireLocked(wk)
		a.mu.Unlock()
	}
	for _, in := range instances {
		in.Terminate()
	}
}

func (a *AutoScaler) loop() {
	defer a.done.Done()
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
			a.adjust()
		}
	}
}

func (a *AutoScaler) adjust() {
	backlog := a.w.queues.Len(a.cfg.Module.queue())
	desired := (backlog + a.cfg.BacklogPerWorker - 1) / a.cfg.BacklogPerWorker
	if desired < a.cfg.Min {
		desired = a.cfg.Min
	}
	if desired > a.cfg.Max {
		desired = a.cfg.Max
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.workers) < desired {
		a.scaleOutLocked()
		if len(a.workers) > a.peak {
			a.peak = len(a.workers)
		}
	}
	for len(a.workers) > desired {
		a.scaleInLocked()
	}
}

func (a *AutoScaler) scaleOutLocked() {
	in := ec2.Launch(a.w.ledger, a.cfg.InstanceType)
	var wk *Worker
	if a.cfg.Module == IndexerModule {
		wk = a.w.StartIndexer(in, a.cfg.Worker)
	} else {
		wk = a.w.StartQueryProcessor(in, a.cfg.Worker)
	}
	a.workers = append(a.workers, wk)
	a.instances = append(a.instances, in)
}

func (a *AutoScaler) scaleInLocked() {
	last := len(a.workers) - 1
	wk, in := a.workers[last], a.instances[last]
	a.workers, a.instances = a.workers[:last], a.instances[:last]
	a.retiring = append(a.retiring, wk)
	// Stop waits for the current message, so it runs outside the lock.
	a.mu.Unlock()
	wk.Stop()
	in.Terminate()
	a.mu.Lock()
	a.retireLocked(wk)
}

// retireLocked moves a stopped worker's count from retiring to retired in
// one step under the lock.
func (a *AutoScaler) retireLocked(wk *Worker) {
	for i, r := range a.retiring {
		if r == wk {
			a.retiring = append(a.retiring[:i], a.retiring[i+1:]...)
			break
		}
	}
	a.retired += wk.Processed()
}
