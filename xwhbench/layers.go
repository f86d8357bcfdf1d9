package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/index"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// checkEndState verifies a mutated warehouse: once compaction has drained
// the write buffer, every query of the mix must answer identically on the
// served warehouse and on a from-scratch immutable rebuild of its final
// documents. Each mismatch is a failed request.
func (s *system) checkEndState(res *result, corpus []xmark.Doc) error {
	if !s.def.mutable {
		return nil
	}
	s.drainIn = ec2.Launch(s.w.Ledger(), ec2.Large)
	if err := drain(s.w, s.drainIn); err != nil {
		return err
	}
	rb, err := core.New(core.Config{Strategy: index.TwoLUPI})
	if err != nil {
		return err
	}
	for _, d := range corpus {
		if data, ok := s.docs[d.URI]; ok {
			if err := rb.SubmitDocument(d.URI, data); err != nil {
				return err
			}
		}
	}
	if _, err := rb.IndexCorpusOn(ec2.LaunchFleet(rb.Ledger(), ec2.Large, 2), nil); err != nil {
		return err
	}
	in := ec2.Launch(rb.Ledger(), ec2.Large)
	client := newClient()
	defer client.CloseIdleConnections()
	for _, q := range s.def.queries {
		want, _, err := rb.RunQueryOn(in, q.Text, true)
		if err != nil {
			return fmt.Errorf("rebuild %s: %w", q.Name, err)
		}
		got, _, _, _, err := serveQuery(client, s.base, q.Text)
		res.Attempted++
		switch {
		case err != nil:
			res.fail(fmt.Errorf("end-state %s: %w", q.Name, err))
		case !bytes.Equal(got, canonical(want)):
			res.fail(fmt.Errorf("end-state %s: mutated warehouse answers differently from a rebuild of its final documents", q.Name))
		}
	}
	return nil
}

type compactCount struct{ items, deletes int64 }

func compactCounts(s *system) compactCount {
	reg := s.w.Registry()
	return compactCount{reg.Counter("index.compact.items").Value(), reg.Counter("index.compact.deletes").Value()}
}

// perLayer computes the traced run's metrics: the layer numbers from the
// traced phase's replays, and the runtime, SQS and write-latency numbers
// from the untraced phase that precedes it.
func perLayer(res *result, s *system, sr setupReplay, plain, traced *phase, all []*phase, base compactCount) error {
	var n int
	var (
		rtSum, covered                         time.Duration
		serveSelf, dispatch, parse, lookup     time.Duration
		indexSelf, kvTime, s3Time, xml, eval   time.Duration
		kvCalls, kvItems, getOps, lookupBytes  int64
		s3Bytes, xmlBytes, respBytes           int64
		cands, useful, blocksRead, blocksSkipd int64
	)
	for _, o := range traced.queries() {
		rp := o.rep
		if rp == nil {
			continue
		}
		n++
		rt, do, wall := o.rt.dur(), rp.do.dur(), rp.wall.dur()
		serveSelf += rt - do
		dispatch += do - wall
		parse += rp.parse.dur()
		lookup += rp.lookup.dur()
		indexSelf += rp.lookup.dur() - union(rp.kv)
		kvTime += sumDur(rp.kv)
		kvCalls += int64(len(rp.kv))
		kvItems += rp.kvItems
		getOps += rp.getOps
		lookupBytes += rp.bytes
		s3Time += sumDur(rp.s3)
		s3Bytes += rp.s3Bytes
		xml += sumDur(rp.xml)
		xmlBytes += rp.xmlBytes
		eval += rp.eval.dur()
		respBytes += int64(o.respBytes)
		cands += int64(rp.cands)
		useful += int64(rp.useful)
		blocksRead += rp.blocksRd
		blocksSkipd += rp.blocksSkp
		leaves := append([]interval{rp.parse, rp.lookup, rp.eval}, rp.s3...)
		covered += rt - wall + union(append(leaves, rp.xml...))
		rtSum += rt
	}
	if n == 0 {
		return fmt.Errorf("traced phase replayed no query")
	}
	servedOps := traced.after.getOps - traced.before.getOps
	servedBytes := traced.after.lookupBytes - traced.before.lookupBytes
	if getOps != servedOps || lookupBytes != servedBytes {
		res.fail(fmt.Errorf("replay fidelity: replayed look-ups read %d keys / %d bytes, the served ones %d / %d",
			getOps, lookupBytes, servedOps, servedBytes))
	}
	perQ := func(d time.Duration) float64 { return msPer(d, n) }
	perQN := func(v int64) float64 { return float64(v) / float64(n) }
	res.set("serve.self_ms", perQ(serveSelf), "ms")
	res.set("serve.resp_kb", perQN(respBytes)/1024, "kB")
	res.set("core.dispatch_ms", perQ(dispatch), "ms")
	res.set("pattern.parse_us", perQ(parse)*1000, "us")
	res.set("index.lookup_ms", perQ(lookup), "ms")
	res.set("index.self_ms", perQ(indexSelf), "ms")
	res.set("index.blocks_skipped_ratio", ratio(blocksSkipd, blocksSkipd+blocksRead), "ratio")
	res.set("index.get_ops_per_query", perQN(getOps), "count")
	res.set("index.bytes_per_query", perQN(lookupBytes), "bytes")
	res.set("index.candidates_per_query", perQN(cands), "count")
	res.set("index.precision", ratio(useful, cands), "ratio")
	res.set("kv.get_ms", perQ(kvTime), "ms")
	res.set("kv.get_calls", perQN(kvCalls), "count")
	res.set("kv.items_read", perQN(kvItems), "count")
	res.set("s3.get_ms", perQ(s3Time), "ms")
	res.set("s3.bytes", perQN(s3Bytes), "bytes")
	res.set("xmltree.parse_ms", perQ(xml), "ms")
	res.set("xmltree.parse_mb_s", float64(xmlBytes)/(1<<20)/xml.Seconds(), "MB/s")
	res.set("engine.eval_ms", perQ(eval), "ms")
	res.set("trace.coverage", float64(covered)/float64(rtSum), "ratio")

	plainQ := plain.queries()
	plainOK := float64(succeeded(plainQ))
	tracedQPS := float64(n) / traced.wall.Seconds()
	res.set("trace.overhead", tracedQPS/(plainOK/plain.wall.Seconds()), "ratio")
	res.set("sqs.requests_per_query",
		float64(plain.after.usage.Sub(plain.before.usage).ServiceCalls("sqs"))/plainOK, "count")
	allocs := plain.after.rt.allocBytes - plain.before.rt.allocBytes
	res.set("go.alloc_kb_per_query", float64(allocs)/1024/plainOK, "kB")
	res.set("go.gc_cpu_frac", (plain.after.rt.gcCPU-plain.before.rt.gcCPU)/(plain.after.rt.totalCPU-plain.before.rt.totalCPU), "ratio")

	docs := float64(sr.docs)
	res.set("setup.parse_ms_per_doc", ms(sr.parse)/docs, "ms")
	res.set("setup.extract_ms_per_doc", ms(sr.extract)/docs, "ms")
	res.set("setup.kv_put_ms_per_doc", ms(sr.puts)/docs, "ms")

	writeLayers(res, s, plain, traced, all, base)
	for _, k := range []string{"serve.self_ms", "core.dispatch_ms", "index.lookup_ms", "engine.eval_ms"} {
		res.samples[k] = n
	}
	return nil
}

// writeLayers computes the write-path metrics; all are zero on a
// read-only workload, whose mix never reaches the write path.
func writeLayers(res *result, s *system, plain, traced *phase, all []*phase, base compactCount) {
	var upd, rem []time.Duration
	var mutations []outcome
	var kvPut time.Duration
	for _, o := range traced.writes() {
		if o.wrep == nil {
			continue
		}
		mutations = append(mutations, o)
		kvPut += o.wrep.kvPut
		switch {
		case o.wrep.backend.compacted:
			// Timed below, as a compaction pass.
		case o.req.remove:
			rem = append(rem, o.wrep.backend.iv.dur())
		default:
			upd = append(upd, o.wrep.backend.iv.dur())
		}
	}
	// A write that triggered the compaction pass took its own time plus the
	// pass: the pass is its excess over the mean write of the same kind.
	updMean, remMean := meanDur(upd), meanDur(rem)
	var extra time.Duration
	passes := 0
	for _, o := range mutations {
		if !o.wrep.backend.compacted {
			continue
		}
		passes++
		if o.req.remove && len(rem) > 0 {
			extra += o.wrep.backend.iv.dur() - remMean
		} else {
			extra += o.wrep.backend.iv.dur() - updMean
		}
	}
	res.set("mutate.update_ms", ms(updMean), "ms")
	res.set("mutate.remove_ms", ms(remMean), "ms")
	res.set("mutate.compact_ms_per_pass", msPer(extra, passes), "ms")
	res.set("kv.put_ms_per_mutation", msPer(kvPut, len(mutations)), "ms")

	lat := latencies(plain.writes())
	res.set("write_p50_ms", percentile(lat, 0.50), "ms")
	res.set("write_p95_ms", percentile(lat, 0.95), "ms")
	res.samples["write_p95_ms"] = len(lat)

	// Write amplification and cost: everything compaction re-wrote since
	// set-up (the final drain included), against what a fresh insert of the
	// updated documents writes.
	var updates, removes, fresh int64
	opts := index.OptionsFor(s.w.Store())
	for _, p := range all {
		for _, o := range p.writes() {
			if !o.ok() {
				continue
			}
			if o.req.remove {
				removes++
				continue
			}
			updates++
			if doc, err := xmltree.Parse(o.req.uri, o.req.data); err == nil {
				fresh += int64(extractionItems(s.w.Store(), index.Extract(index.TwoLUPI, doc, opts)))
			}
		}
	}
	now := compactCounts(s)
	rewrites := now.items - base.items + now.deletes - base.deletes
	res.set("mutate.rewrite_ratio", ratio(rewrites, fresh), "ratio")
	var hours float64
	if s.drainIn != nil {
		hours = s.backend.WriteHours() + s.drainIn.Elapsed().Hours()
	}
	cost := costmodel.UpdateCost(book, costmodel.UpdateMetrics{
		Updates:        updates,
		Removes:        removes,
		CompactPuts:    now.items - base.items,
		CompactDeletes: now.deletes - base.deletes,
		Hours:          hours,
		VMType:         ec2.Large.Name,
	})
	res.set("usd_per_1m_mutations", float64(costmodel.PerMillionUpdates(cost, updates+removes)), "usd")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func msPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(d) / float64(n)
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}
