package engine

import (
	"slices"
	"time"

	"dyntc/internal/core"
	"dyntc/internal/obs"
	"dyntc/internal/replog"
)

// This file is the engine layer's observability wiring: histogram
// instruments over the wave pipeline (submit → coalesce wait → flush →
// per-kind phase → seal/tap → ack), the per-flush record handed to the
// hub, and the sampled flush span tree. All of it is opt-in through
// Options.Obs; an engine without a hub takes exactly one bool check per
// flush and nothing per request.

// numStages is the wave phases plus the barrier pseudo-phase.
const numStages = numPhases + 1

// stageBarrierIdx indexes the barrier slot of scratch.stageNS.
const stageBarrierIdx = numPhases

// stageNames labels each stage slot for the stage-seconds histogram.
var stageNames = [numStages]string{
	"grow", "collapse", "set-leaf", "set-op", "seal", "value", "barrier",
}

// instruments bundles the engine layer's metric instruments. Every
// engine built over one hub feeds the same instruments — they are atomic,
// and per-tree label cardinality would make a 10k-tree forest
// unscrapeable — so the histograms describe the whole forest's wave
// pipeline.
type instruments struct {
	// FlushSeconds is the wall time of one coalesced flush: flush start to
	// every request of the flush acked.
	FlushSeconds *obs.Histogram
	// CoalesceSeconds is how long a flush's oldest request waited between
	// submit and flush start — the price of batching.
	CoalesceSeconds *obs.Histogram
	// Stage is per-phase execution time, one histogram sample per flush
	// per non-empty stage (grow, collapse, set-leaf, set-op, seal —
	// change-record build plus tap/WAL append —, value, barrier).
	Stage [numStages]*obs.Histogram
	// HealRecords is the number of trace records a mutating wave's heal
	// re-executed — the change-propagation cost, one sample per wave. A
	// distribution hugging the tree's log n is healthy; samples near the
	// trace size mean waves are re-simulating.
	HealRecords *obs.Histogram
}

// healRecordBuckets are power-of-four record counts: heal costs range
// from a handful of records (a local wound) to millions (a re-simulated
// big tree), so the buckets must span six orders of magnitude cheaply.
var healRecordBuckets = []int64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// RegisterHistograms registers the engine histogram families on h's
// registry (a no-op for a nil hub), so a forest exports them before its
// first tree exists.
func RegisterHistograms(h *obs.Hub) { newInstruments(h) }

// newInstruments registers the engine histogram families on the hub's
// registry (nil without a hub). Registration is idempotent, so every
// engine built over one hub feeds the same instruments.
func newInstruments(h *obs.Hub) *instruments {
	if h == nil {
		return nil
	}
	r := h.Registry()
	o := &instruments{
		FlushSeconds: r.Seconds("dyntc_engine_flush_seconds",
			"wall time of one coalesced flush, start to all requests acked"),
		CoalesceSeconds: r.Seconds("dyntc_engine_coalesce_wait_seconds",
			"wait of a flush's oldest request between submit and flush start"),
	}
	for i, name := range stageNames {
		o.Stage[i] = r.Seconds("dyntc_engine_stage_seconds",
			"execution time of one wave phase, summed per flush", "stage", name)
	}
	o.HealRecords = r.HistogramWith("dyntc_heal_wave_records",
		"trace records re-executed by one mutating wave's heal", healRecordBuckets, 1)
	return o
}

// RegisterStatsFuncs exports the engine layer's counter and gauge
// families on reg as scrape-time functions over a Stats provider —
// typically a cached TotalStats over a forest, so the engines' own atomic
// counters are the single source of truth and the request path carries no
// second set of increments.
func RegisterStatsFuncs(r *obs.Registry, stats func() Stats) {
	for k := range replog.OpRoot + 1 {
		label := k.String()
		if k == kBarrier {
			label = "barrier"
		}
		r.CounterFunc("dyntc_engine_requests_total", "ops executed, by kind (barriers count one)",
			func() float64 { s := stats(); return float64(*s.byKind()[k]) }, "kind", label)
	}
	r.CounterFunc("dyntc_engine_flushes_total", "coalesced flushes executed",
		func() float64 { return float64(stats().Flushes) })
	r.CounterFunc("dyntc_engine_waves_total", "conflict-free waves executed",
		func() float64 { return float64(stats().Waves) })
	r.CounterFunc("dyntc_heal_records_total", "trace records re-executed by mutating-wave heals",
		func() float64 { return float64(stats().HealRecords) })
	for _, reason := range core.ResimReasons {
		r.CounterFunc("dyntc_resimulations_total", "mutating waves that fell back to full re-simulation, by reason",
			func() float64 { return float64(stats().ResimReasons[reason]) }, "reason", reason)
	}
	r.CounterFunc("dyntc_engine_errors_total", "ops failed by validation",
		func() float64 { return float64(stats().Errors) })
	r.CounterFunc("dyntc_engine_dropped_total", "ops discarded unexecuted (closed or poisoned)",
		func() float64 { return float64(stats().Dropped) })
	r.CounterFunc("dyntc_engine_shed_total", "ops rejected at submit, queue full",
		func() float64 { return float64(stats().Shed) })
	r.GaugeFunc("dyntc_engine_queue_depth", "submitted requests currently queued, all trees",
		func() float64 { return float64(stats().QueueDepth) })
	r.GaugeFunc("dyntc_engine_applied_seq", "mutating waves applied, summed over trees",
		func() float64 { return float64(stats().AppliedSeq) })
	r.GaugeFunc("dyntc_engine_flush_p50_seconds", "median flush latency over the merged retained windows",
		func() float64 { return stats().FlushP50US / 1e6 })
	r.GaugeFunc("dyntc_engine_flush_p99_seconds", "p99 flush latency over the merged retained windows",
		func() float64 { return stats().FlushP99US / 1e6 })
}

// SetTraceID sets the tree id stamped into this engine's flush records —
// a forest sets it to the tree's id before it serves the engine.
func (e *Engine) SetTraceID(id uint64) { e.traceID.Store(id) }

// beginFlushSpan decides, at flush start, whether this flush is recorded
// into the hub's span log: a flush the hub samples by cadence, or any
// flush carrying a request with an explicit trace context (the first such
// request's trace is adopted, so an X-Dyntc-Trace header forces
// end-to-end tracing). The unsampled path is allocation-free: one counter
// compare plus one span field compare per request.
func (e *Engine) beginFlushSpan(flush []*Future, flushStart time.Time) {
	sc := &e.sc
	sc.spanActive = false
	sc.spanTrace, sc.spanParent, sc.spanFlush = 0, 0, 0
	sc.flushT0 = flushStart
	sampled := e.opts.Obs.Sampled(e.flushSeq)
	for _, f := range flush {
		if f.span.Valid() {
			sc.spanTrace, sc.spanParent = f.span.Trace, f.span.Span
			sampled = true
			break
		}
	}
	if !sampled {
		return
	}
	sc.spanActive = true
	if sc.spanTrace == 0 {
		sc.spanTrace = obs.NewTraceID()
	}
	sc.spanFlush = obs.NewSpanID()
	for i := range sc.stageStart {
		sc.stageStart[i] = -1
	}
}

// emitFlushSpans records the sampled flush's span tree: the flush span
// (parented on the adopting request's ingest span, when one exists)
// carrying the flush record's wave count and heal cost, an
// engine.coalesce span for the batching wait, and one child span per
// stage that ran, timestamped from the stage's first start within the
// flush. Wave anchor spans were already emitted by phaseSealWave.
func (e *Engine) emitFlushSpans(tr *obs.WaveTrace) {
	sc := &e.sc
	sl := e.opts.Obs.Spans()
	t0 := sc.flushT0.UnixNano()
	sl.Add(obs.Span{
		Trace:  sc.spanTrace,
		Span:   sc.spanFlush,
		Parent: sc.spanParent,
		Name:   "engine.flush",
		Tree:   tr.Tree,
		Seq:    tr.Seq,
		Epoch:  tr.Epoch,
		Start:  t0,
		Dur:    tr.Flush,
		Reqs:   tr.Reqs,

		Waves:        tr.Waves,
		HealRecords:  tr.HealRecords,
		Resims:       tr.Resims,
		ResimReason:  tr.ResimReason,
		TraceRecords: tr.TraceRecords,
	})
	if tr.Coalesce > 0 {
		sl.Add(obs.Span{
			Trace:  sc.spanTrace,
			Span:   obs.NewSpanID(),
			Parent: sc.spanFlush,
			Name:   "engine.coalesce",
			Tree:   tr.Tree,
			Epoch:  tr.Epoch,
			Start:  t0 - tr.Coalesce,
			Dur:    tr.Coalesce,
		})
	}
	for i := range sc.stageNS {
		if sc.stageNS[i] > 0 && sc.stageStart[i] >= 0 {
			sl.Add(obs.Span{
				Trace:  sc.spanTrace,
				Span:   obs.NewSpanID(),
				Parent: sc.spanFlush,
				Name:   "stage." + stageNames[i],
				Tree:   tr.Tree,
				Epoch:  tr.Epoch,
				Start:  t0 + sc.stageStart[i],
				Dur:    sc.stageNS[i],
			})
		}
	}
}

// observeFlush runs at the end of every flush on a timing-enabled engine:
// it feeds the histograms, completes the flush record, emits it as the
// flush's span tree when span-sampled, and hands it by value to the hub,
// so an unsampled flush allocates nothing.
func (e *Engine) observeFlush(reqs int, coalesceNS, flushNS int64) {
	sc := &e.sc
	o := e.inst
	o.FlushSeconds.Observe(flushNS)
	o.CoalesceSeconds.Observe(coalesceNS)
	for i := range sc.stageNS {
		if ns := sc.stageNS[i]; ns > 0 {
			o.Stage[i].Observe(ns)
		}
	}
	tr := &sc.flushRec
	tr.Tree = e.traceID.Load()
	tr.Seq = e.appliedSeq.Load()
	tr.Epoch = e.epoch.Load()
	tr.Reqs = reqs
	tr.Coalesce = coalesceNS
	tr.Flush = flushNS
	tr.Grow = sc.stageNS[phaseGrowsIdx]
	tr.Collapse = sc.stageNS[phaseCollapsesIdx]
	tr.SetLeaf = sc.stageNS[phaseSetLeavesIdx]
	tr.SetOp = sc.stageNS[phaseSetOpsIdx]
	tr.Seal = sc.stageNS[phaseSealWaveIdx]
	tr.Value = sc.stageNS[phaseValuesIdx]
	tr.Barrier = sc.stageNS[stageBarrierIdx]
	if sc.spanActive {
		tr.TraceID = sc.spanTrace
		e.emitFlushSpans(tr)
	}
	e.opts.Obs.FlushDone(*tr)
}

// noteHeal counts the n ops of kind k a mutating host call just executed
// and folds the host's heal report for that call into the engine
// counters, the flush record under construction and the records-touched
// histogram. It runs right after each mutating host call, on the
// executor, so the report it reads is the call's own.
func (e *Engine) noteHeal(k replog.OpKind, n int) {
	e.stats.done(k, n)
	if e.healer == nil || n == 0 {
		return
	}
	hs := e.healer.LastHeal()
	e.stats.healRecords.Add(uint64(hs.WoundRecords))
	if hs.Resimulated {
		e.stats.resims.Add(1)
		if i := slices.Index(core.ResimReasons[:], hs.ResimReason); i >= 0 {
			e.stats.resimsBy[i].Add(1)
		}
	}
	if e.timing {
		e.inst.HealRecords.Observe(int64(hs.WoundRecords))
		tr := &e.sc.flushRec
		tr.HealRecords += int64(hs.WoundRecords)
		if hs.Resimulated {
			tr.Resims++
			tr.ResimReason = hs.ResimReason
		}
		tr.TraceRecords = hs.TotalRecords
	}
}
