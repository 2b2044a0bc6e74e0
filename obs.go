package dyntc

import "dyntc/internal/obs"

// This file is the public face of internal/obs: one observability handle
// per process. Pass it as BatchOptions.Obs and every layer reports into
// it — engines (flush histograms, sampled flush spans, per-flush records,
// lifecycle events), the forest's cross-tree query planner and,
// through WaveLog.SetObs, the wave logs. Without one the engine pays one
// boolean check per flush.

// Obs is a process's observability hub: the metrics registry (rendered
// in Prometheus text format by Registry().WriteTo), the span log and its
// flush sampling period, the lifecycle event journal and the slow-wave
// log. Share one hub across every engine, forest and log of a process.
type Obs = obs.Hub

// ObsConfig configures NewObs. The zero value is an in-memory hub: no
// event-log mirror, every 16th flush span-sampled, no slow-wave log.
type ObsConfig = obs.HubConfig

// NewObs builds an observability hub. It fails only when a configured
// event-log mirror cannot be opened.
func NewObs(cfg ObsConfig) (*Obs, error) { return obs.NewHub(cfg) }

// TraceContext is the propagated half of a distributed trace: the trace
// ID plus the parent span ID. The zero value means "untraced" and costs
// nothing to carry. Servers derive it from the X-Dyntc-Trace header and
// pass it to Engine.Apply.
type TraceContext = obs.SpanContext
