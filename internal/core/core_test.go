package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/cloud/s3"
	"repro/internal/index"
	"repro/internal/xmark"
)

func newWarehouse(t *testing.T, s index.Strategy) *Warehouse {
	t.Helper()
	w, err := New(Config{Strategy: s})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func loadPaintings(t *testing.T, w *Warehouse, fleet []*ec2.Instance) IndexReport {
	t.Helper()
	var uris []string
	for _, d := range xmark.Paintings() {
		if _, err := w.files.Put(Bucket, DocKey(d.URI), d.Data, nil); err != nil {
			t.Fatal(err)
		}
		uris = append(uris, d.URI)
	}
	rep, err := w.IndexCorpusOn(fleet, uris)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestIndexCorpusOnReport(t *testing.T) {
	w := newWarehouse(t, index.LUP)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 2)
	rep := loadPaintings(t, w, fleet)
	if rep.Docs != 13 {
		t.Errorf("docs = %d, want 13", rep.Docs)
	}
	if rep.Items == 0 || rep.Entries == 0 || rep.Total <= 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Items != int(w.IndexItems()) {
		t.Errorf("report items %d != store items %d", rep.Items, w.IndexItems())
	}
	raw, ovh := w.IndexBytes()
	if raw <= 0 || ovh <= 0 {
		t.Errorf("index bytes = %d, %d", raw, ovh)
	}
	if w.DataBytes() <= 0 {
		t.Error("no data bytes")
	}
	// Queue fully drained.
	if w.queues.Len(LoaderQueue) != 0 {
		t.Error("loader queue not drained")
	}
}

func TestRunQueryOnWithAndWithoutIndex(t *testing.T) {
	for _, s := range index.All() {
		w := newWarehouse(t, s)
		fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
		loadPaintings(t, w, fleet)
		in := ec2.Launch(w.ledger, ec2.XL)

		const q = `//painting[/name~"Lion", /painter[/name[/last{val}]]]`
		withIdx, si, err := w.RunQueryOn(in, q, true)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		noIdx, sn, err := w.RunQueryOn(in, q, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(withIdx.Rows) != 2 || len(noIdx.Rows) != 2 {
			t.Errorf("%s: rows with=%d without=%d, want 2", s.Name(), len(withIdx.Rows), len(noIdx.Rows))
		}
		if si.DocsFetched >= sn.DocsFetched {
			t.Errorf("%s: indexed fetched %d docs, no-index %d", s.Name(), si.DocsFetched, sn.DocsFetched)
		}
		if si.ResponseTime >= sn.ResponseTime {
			t.Errorf("%s: indexed response %v not faster than %v", s.Name(), si.ResponseTime, sn.ResponseTime)
		}
		if si.GetOps == 0 || sn.GetOps != 0 {
			t.Errorf("%s: get ops with=%d without=%d", s.Name(), si.GetOps, sn.GetOps)
		}
		if sn.DocsFetched != 13 {
			t.Errorf("no-index fetched %d docs, want all 13", sn.DocsFetched)
		}
	}
}

func TestValueJoinQueryThroughWarehouse(t *testing.T) {
	w := newWarehouse(t, index.TwoLUPI)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	in := ec2.Launch(w.ledger, ec2.Large)
	res, stats, err := w.RunQueryOn(in,
		`//museum[/name{val}, //painting[/@id $a]], //painting[/@id $b, /painter[/name[/last="Delacroix"]]] where $a = $b`, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("join query returned nothing")
	}
	for _, r := range res.Rows {
		if r.Cols[0] == "Musee dOrsay" {
			t.Errorf("false join result: %v", r)
		}
	}
	if stats.DocIDsFromIndex <= stats.DocsFetched-1 {
		// Per-pattern counts sum across patterns; with two patterns this
		// is at least the fetched unions.
		t.Logf("doc ids=%d fetched=%d", stats.DocIDsFromIndex, stats.DocsFetched)
	}
}

func TestQueryStatsDecomposition(t *testing.T) {
	w := newWarehouse(t, index.TwoLUPI)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	in := ec2.Launch(w.ledger, ec2.XL)
	_, st, err := w.RunQueryOn(in, `//painting[/name{val}]`, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.LookupGetTime <= 0 || st.PlanTime <= 0 || st.FetchEvalTime <= 0 {
		t.Errorf("decomposition has zero components: %+v", st)
	}
	// The multicore overlap property the paper highlights: response time
	// below the sum of the detailed components is allowed; it must at
	// least cover the serial look-up part.
	if st.ResponseTime < st.LookupGetTime+st.PlanTime {
		t.Errorf("response %v below serial lookup %v", st.ResponseTime, st.LookupGetTime+st.PlanTime)
	}
}

func TestXLFasterThanLSameWorkload(t *testing.T) {
	times := map[string]time.Duration{}
	for _, typ := range []ec2.InstanceType{ec2.Large, ec2.XL} {
		w := newWarehouse(t, index.LU)
		fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
		loadPaintings(t, w, fleet)
		in := ec2.Launch(w.ledger, typ)
		_, st, err := w.RunQueryOn(in, `//painting[/name{val}]`, false)
		if err != nil {
			t.Fatal(err)
		}
		times[typ.Name] = st.ResponseTime
	}
	if times["xl"] >= times["l"] {
		t.Errorf("xl (%v) not faster than l (%v)", times["xl"], times["l"])
	}
}

func TestLivePipelineEndToEnd(t *testing.T) {
	w := newWarehouse(t, index.LUP)
	// Submit documents through the front end (steps 1-3).
	for _, d := range xmark.Paintings() {
		if err := w.SubmitDocument(d.URI, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	// Two live indexers.
	idx1 := w.StartIndexer(ec2.Launch(w.ledger, ec2.Large), WorkerOptions{})
	idx2 := w.StartIndexer(ec2.Launch(w.ledger, ec2.Large), WorkerOptions{})
	deadline := time.Now().Add(10 * time.Second)
	for w.queues.Len(LoaderQueue) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	idx1.Stop()
	idx2.Stop()
	if w.queues.Len(LoaderQueue) != 0 {
		t.Fatal("loader queue not drained by live indexers")
	}
	if idx1.Processed()+idx2.Processed() != 13 {
		t.Fatalf("processed %d + %d, want 13", idx1.Processed(), idx2.Processed())
	}

	// One live query processor; query through the front end (7-8, 16-18).
	qp := w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.XL), WorkerOptions{})
	defer qp.Stop()
	f := NewFrontend(w)
	defer f.Close()
	out, err := f.Do(`//painting[/name~"Lion", /painter[/name[/last{val}]]]`, true, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Result.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(out.Result.Rows))
	}
}

func TestFaultToleranceIndexerCrash(t *testing.T) {
	w := newWarehouse(t, index.LU)
	for _, d := range xmark.Paintings()[:4] {
		if err := w.SubmitDocument(d.URI, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	// A slow worker with a short lease crashes mid-document.
	victim := w.StartIndexer(ec2.Launch(w.ledger, ec2.Large), WorkerOptions{
		Visibility: 50 * time.Millisecond,
		WorkDelay:  200 * time.Millisecond,
	})
	time.Sleep(80 * time.Millisecond) // it has received a message by now
	victim.Crash()

	// A healthy worker must pick up everything, including the abandoned
	// message once its lease expires.
	rescuer := w.StartIndexer(ec2.Launch(w.ledger, ec2.Large), WorkerOptions{})
	deadline := time.Now().Add(10 * time.Second)
	for w.queues.Len(LoaderQueue) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	rescuer.Stop()
	if got := w.queues.Len(LoaderQueue); got != 0 {
		t.Fatalf("queue still holds %d messages after crash recovery", got)
	}
	if rescuer.Processed() == 0 {
		t.Error("rescuer processed nothing")
	}
}

func TestErrorQueryReportedThroughResponseQueue(t *testing.T) {
	w := newWarehouse(t, index.LU)
	qp := w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.Large), WorkerOptions{})
	defer qp.Stop()
	f := NewFrontend(w)
	defer f.Close()
	out, err := f.Do(`not a ( valid query`, true, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.Err == nil || !errors.Is(out.Err, ErrQueryFailed) {
		t.Errorf("outcome error = %v", out.Err)
	}
}

// Each waiter receives its own query's outcome, whatever order the
// responses arrive and the callers wait in.
func TestAwaitResultSkipsForeignResponses(t *testing.T) {
	w := newWarehouse(t, index.LU)
	loadPaintings(t, w, []*ec2.Instance{ec2.Launch(w.ledger, ec2.Large)})
	qp := w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.Large), WorkerOptions{})
	defer qp.Stop()
	f := NewFrontend(w)
	defer f.Close()
	// Two queries; wait for the second first.
	idA, chA, err := f.Submit(`//painting[/name{val}]`, true)
	if err != nil {
		t.Fatal(err)
	}
	idB, chB, err := f.Submit(`//museum[/name{val}]`, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		id   string
		ch   <-chan *QueryOutcome
		rows int
	}{{idB, chB, 4}, {idA, chA, 9}} {
		out := awaitOutcome(t, c.ch, 10*time.Second)
		if out.Err != nil || out.ID != c.id {
			t.Fatalf("outcome for %s: %+v", c.id, out)
		}
		if len(out.Result.Rows) != c.rows {
			t.Errorf("%s: %d rows, want %d", c.id, len(out.Result.Rows), c.rows)
		}
	}
}

// failFirstResultGet fails the first result-object fetch (step 17).
type failFirstResultGet struct {
	fileService
	failed bool
}

func (f *failFirstResultGet) Get(bkt, key string) (s3.Object, time.Duration, error) {
	if strings.HasPrefix(key, resultsPrefix) && !f.failed {
		f.failed = true
		return s3.Object{}, 0, s3.ErrTransient
	}
	return f.fileService.Get(bkt, key)
}

// A response RunQueryOn fails to collect must not answer a later query:
// after a failed result fetch, and with the response queue's leases long
// expired, the next query returns its own rows. A stale response for
// another query sitting in the queue is skipped and deleted, never
// returned.
func TestRunQueryOnNeverReturnsAnotherQuerysAnswer(t *testing.T) {
	w := newWarehouse(t, index.LU)
	in := ec2.Launch(w.ledger, ec2.Large)
	loadPaintings(t, w, []*ec2.Instance{in})
	museums, _, err := w.RunQueryOn(in, `//museum[/name{val}]`, true)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(museums.Rows)

	w.files = &failFirstResultGet{fileService: w.files}
	if _, _, err := w.RunQueryOn(in, `//painting[/name{val}]`, true); err == nil {
		t.Fatal("query succeeded although its result fetch failed")
	}
	later := time.Now().Add(time.Hour)
	w.Queues().SetClock(func() time.Time { return later })
	got, _, err := w.RunQueryOn(in, `//museum[/name{val}]`, true)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Rows) != want {
		t.Fatalf("museum query answered with %d rows %v, want its own %d rows", len(got.Rows), got.Rows, len(museums.Rows))
	}

	stale, _ := json.Marshal(responseMessage{ID: "q-999999", ResultKey: resultsPrefix + "q-000001"})
	if _, _, err := w.queues.Send(ResponseQueue, string(stale)); err != nil {
		t.Fatal(err)
	}
	got, _, err = w.RunQueryOn(in, `//museum[/name{val}]`, true)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Rows) != want {
		t.Fatalf("museum query answered with %d rows past a stale response, want its own %d", len(got.Rows), len(museums.Rows))
	}
	if n := w.queues.Len(ResponseQueue); n != 0 {
		t.Errorf("response queue holds %d messages after the queries", n)
	}
}

func TestNewRejectsUnknownBackend(t *testing.T) {
	if _, err := New(Config{Backend: "etcd"}); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestSimpleDBBackedWarehouse(t *testing.T) {
	w, err := New(Config{Strategy: index.LUI, Backend: "simpledb"})
	if err != nil {
		t.Fatal(err)
	}
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	in := ec2.Launch(w.ledger, ec2.Large)
	res, _, err := w.RunQueryOn(in, `//painting[/name~"Lion", /painter[/name[/last{val}]]]`, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(res.Rows))
	}
}

func TestMeteringMatchesCostModelShape(t *testing.T) {
	// The per-query queue requests of the deterministic driver must match
	// the cost model: 3 front-end + 3 processor-side requests per query.
	w := newWarehouse(t, index.LU)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	in := ec2.Launch(w.ledger, ec2.Large)
	before := w.ledger.Snapshot()
	if _, _, err := w.RunQueryOn(in, `//painting[/name{val}]`, true); err != nil {
		t.Fatal(err)
	}
	delta := w.ledger.Snapshot().Sub(before)
	if got := delta.ServiceCalls("sqs"); got != 6 {
		t.Errorf("sqs calls per query = %d, want 6", got)
	}
	if got := delta.EgressBytes(); got <= 0 {
		t.Error("no egress recorded for returned results")
	}
	// One S3 put for the results, gets for the documents fetched.
	if got := delta.Get("s3", "put").Calls; got != 1 {
		t.Errorf("s3 puts per query = %d, want 1", got)
	}
}

func TestDocumentURIs(t *testing.T) {
	w := newWarehouse(t, index.LU)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	uris, err := w.DocumentURIs()
	if err != nil {
		t.Fatal(err)
	}
	if len(uris) != 13 {
		t.Fatalf("uris = %d", len(uris))
	}
	for _, u := range uris {
		if strings.HasPrefix(u, "docs/") {
			t.Errorf("prefix not stripped: %s", u)
		}
	}
}
