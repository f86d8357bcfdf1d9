package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/serve"
)

// connections is the closed loop's client count: each client sends its
// next request only after the previous one is answered, as a warehouse
// caller waiting for its results does.
const connections = 2

// outcome is one answered (or failed) request.
type outcome struct {
	req       request
	rt        interval // HTTP round trip, as the client sees it
	err       error
	id        string // query ID assigned by the warehouse
	respBytes int
	answer    []byte    // canonical served answer
	prev      []byte    // content a write replaced (nil for an insert)
	rep       *replayed // traced phase only
	wrep      *writeReplay
}

func (o *outcome) ok() bool { return o.err == nil }

// snap is the state read at a phase boundary: the billing ledger, the
// warehouse's own counters and the Go runtime's.
type snap struct {
	usage       meter.Usage
	modeled     obs.HistSnapshot // core.query.response, modeled side
	getOps      int64
	lookupBytes int64
	rt          goRuntime
}

func (s *system) snap() snap {
	reg := s.w.Registry()
	return snap{
		usage:       s.w.Ledger().Snapshot(),
		modeled:     reg.Histogram("core.query.response").Modeled(),
		getOps:      reg.Counter("index.lookup.get_ops").Value(),
		lookupBytes: reg.Counter("index.lookup.bytes_fetched").Value(),
		rt:          readRuntime(),
	}
}

// phase is one closed-loop stretch of the request sequence.
type phase struct {
	outs          []outcome
	wall          time.Duration
	before, after snap
}

// queries returns the phase's query outcomes.
func (p *phase) queries() []outcome {
	var out []outcome
	for _, o := range p.outs {
		if !o.req.isWrite() {
			out = append(out, o)
		}
	}
	return out
}

func (p *phase) writes() []outcome {
	var out []outcome
	for _, o := range p.outs {
		if o.req.isWrite() {
			out = append(out, o)
		}
	}
	return out
}

// loadGen drives one phase: connections clients pull requests from the
// shared sequence until the deadline has passed and the current block is
// complete, or maxRequests have been issued.
type loadGen struct {
	sys         *system
	seq         *sequence
	client      *http.Client
	tr          *tracer // nil for an untraced phase
	blockLen    int
	deadline    time.Time
	maxRequests int

	// gate keeps writes from interleaving between a traced query and its
	// replay on the mutable corpus: queries and their replays hold it
	// shared, writes exclusively.
	gate sync.RWMutex

	mu     sync.Mutex
	issued int
	outs   []outcome
}

// runPhase runs one phase of at least one whole block. With d > 0 it
// continues until d has elapsed and the block in progress completes; with
// maxRequests > 0 it stops after that many requests (a whole number of
// blocks).
func (s *system) runPhase(seq *sequence, d time.Duration, maxRequests int, tr *tracer) *phase {
	g := &loadGen{
		sys:         s,
		seq:         seq,
		client:      newClient(),
		tr:          tr,
		blockLen:    s.def.blockLen(),
		maxRequests: maxRequests,
	}
	defer g.client.CloseIdleConnections()
	p := &phase{before: s.snap()}
	start := time.Now()
	g.deadline = start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < connections; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.loop()
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.after = s.snap()
	p.outs = g.outs
	return p
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: connections,
			MaxConnsPerHost:     connections,
		},
	}
}

// take hands out the next request, or false once the phase is over. It
// also records the content a write will replace, for the traced write
// replay and the final-corpus bookkeeping.
func (g *loadGen) take() (request, []byte, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.issued > 0 && g.issued%g.blockLen == 0 {
		if g.maxRequests > 0 && g.issued >= g.maxRequests {
			return request{}, nil, false
		}
		if g.maxRequests == 0 && !time.Now().Before(g.deadline) {
			return request{}, nil, false
		}
	}
	g.issued++
	r := g.seq.next()
	var prev []byte
	if r.isWrite() {
		prev = g.sys.docs[r.uri]
	}
	return r, prev, true
}

func (g *loadGen) loop() {
	mutable := g.sys.def.mutable
	for {
		r, prev, more := g.take()
		if !more {
			return
		}
		var o outcome
		if r.isWrite() {
			if g.tr != nil {
				g.gate.Lock()
			}
			o = g.write(r)
			if g.tr != nil {
				g.gate.Unlock()
			}
			o.prev = prev
			if g.tr != nil && o.ok() {
				o.wrep, o.err = g.tr.replayWrite(g.sys, &o)
			}
		} else {
			if g.tr != nil && mutable {
				g.gate.RLock()
			}
			o = g.query(r)
			if g.tr != nil && o.ok() {
				o.rep, o.err = g.tr.replayQuery(g.sys, &o)
			}
			if g.tr != nil && mutable {
				g.gate.RUnlock()
			}
		}
		g.mu.Lock()
		if r.isWrite() && o.ok() {
			if r.remove {
				delete(g.sys.docs, r.uri)
			} else {
				g.sys.docs[r.uri] = r.data
			}
		}
		g.outs = append(g.outs, o)
		g.mu.Unlock()
	}
}

// query serves one query over HTTP and, on a read-only workload, checks
// the answer against the query's no-index reference.
func (g *loadGen) query(r request) outcome {
	o := outcome{req: r}
	text := g.sys.def.queries[r.query].Text
	o.answer, o.id, o.respBytes, o.rt, o.err = serveQuery(g.client, g.sys.base, text)
	if o.err == nil && g.sys.reference != nil && !bytes.Equal(o.answer, g.sys.reference[r.query]) {
		o.err = fmt.Errorf("%s: served answer differs from the no-index reference", g.sys.def.queries[r.query].Name)
	}
	return o
}

// serveQuery posts one query and returns its canonical answer.
func serveQuery(client *http.Client, base, text string) (answer []byte, id string, size int, rt interval, err error) {
	body, _ := json.Marshal(serve.QueryRequest{Query: text, UseIndex: true})
	rt.start = time.Now()
	resp, err := client.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", 0, rt, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt.end = time.Now()
	if err != nil {
		return nil, "", 0, rt, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", len(data), rt, fmt.Errorf("query answered %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		return nil, "", len(data), rt, fmt.Errorf("decoding query response: %w", err)
	}
	return canonicalRows(qr.Columns, qr.Rows), qr.ID, len(data), rt, nil
}

// write sends one document update (PUT) or removal (DELETE).
func (g *loadGen) write(r request) outcome {
	o := outcome{req: r}
	target := g.sys.base + "/document?uri=" + url.QueryEscape(r.uri)
	method, body := http.MethodPut, io.Reader(bytes.NewReader(r.data))
	if r.remove {
		method, body = http.MethodDelete, nil
	}
	req, err := http.NewRequest(method, target, body)
	if err != nil {
		o.err = err
		return o
	}
	o.rt.start = time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.rt.end = time.Now()
	o.respBytes = len(data)
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("%s %s answered %d: %s", method, r.uri, resp.StatusCode, bytes.TrimSpace(data))
	}
	return o
}
