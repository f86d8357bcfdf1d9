package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/index"
)

func TestXQueryThroughWarehouse(t *testing.T) {
	w := newWarehouse(t, index.LUP)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	in := ec2.Launch(w.ledger, ec2.XL)
	res, stats, err := w.RunQueryOn(in,
		`for $p in //painting where contains($p/name, "Lion") return string($p/painter/name/last)`, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if stats.GetOps == 0 || stats.DocsFetched >= 13 {
		t.Errorf("XQuery did not go through the index: %+v", stats)
	}
}

func TestParseQueryTextDetection(t *testing.T) {
	cases := []struct {
		text     string
		patterns int
	}{
		{`//painting[/name{val}]`, 1},
		{`for $p in //painting return string($p/name)`, 1},
		{`for $a in //x, $b in //y where $a/k = $b/k return $a/k`, 2},
		// An element literally named "for" still parses as a pattern when
		// not followed by a variable.
		{`//for[/x]`, 1},
		{`for`, 1},
	}
	for _, c := range cases {
		q, err := ParseQueryText(c.text)
		if err != nil {
			t.Errorf("ParseQueryText(%q): %v", c.text, err)
			continue
		}
		if len(q.Patterns) != c.patterns {
			t.Errorf("ParseQueryText(%q): %d patterns, want %d", c.text, len(q.Patterns), c.patterns)
		}
	}
	if _, err := ParseQueryText(`for $x in`); err == nil {
		t.Error("malformed XQuery accepted")
	}
}

func TestQueryProcessorCrashRecovery(t *testing.T) {
	w := newWarehouse(t, index.LU)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)

	// A slow processor with a short lease takes the query and crashes.
	victim := w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.Large), WorkerOptions{
		Visibility: 50 * time.Millisecond,
		WorkDelay:  300 * time.Millisecond,
	})
	f := NewFrontend(w)
	defer f.Close()
	_, ch, err := f.Submit(`//painting[/name{val}]`, true)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	victim.Crash()

	// A healthy processor picks the redelivered message up and answers.
	rescuer := w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.XL), WorkerOptions{})
	defer rescuer.Stop()
	out := awaitOutcome(t, ch, 10*time.Second)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Result.Rows) != 9 {
		t.Errorf("rows = %d, want 9", len(out.Result.Rows))
	}
}

func TestConcurrentQueriesOverLiveFleet(t *testing.T) {
	w := newWarehouse(t, index.LUP)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)

	// Three live processors, eight concurrent front-end clients.
	var workers []*Worker
	for i := 0; i < 3; i++ {
		workers = append(workers, w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.XL), WorkerOptions{}))
	}
	defer func() {
		for _, wk := range workers {
			wk.Stop()
		}
	}()
	f := NewFrontend(w)
	defer f.Close()

	queries := []struct {
		text string
		rows int
	}{
		{`//painting[/name{val}]`, 9},
		{`//painting[/name~"Lion", /painter[/name[/last{val}]]]`, 2},
		{`//museum[/name{val}]`, 4},
		{`for $p in //painting where $p/year = "1854" return $p/description`, 1},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := queries[i%len(queries)]
			out, err := f.Do(q.text, true, 15*time.Second)
			if err != nil {
				errs <- fmt.Errorf("query %d: %w", i, err)
				return
			}
			if out.Err != nil {
				errs <- out.Err
				return
			}
			if len(out.Result.Rows) != q.rows {
				errs <- fmt.Errorf("query %d (%s): %d rows, want %d", i, q.text, len(out.Result.Rows), q.rows)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	total := 0
	for _, wk := range workers {
		total += wk.Processed()
	}
	if total != 8 {
		t.Errorf("workers processed %d queries, want 8", total)
	}
}
