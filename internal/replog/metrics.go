package replog

import (
	"dyntc/internal/obs"
)

// Replication-lag stage labels: the three hops a wave makes between the
// leader's seal and the follower's apply. Exposed as one histogram
// family, dyntc_repl_stage_seconds{stage=...}, registered on both roles
// so a scrape checker sees the family even before traffic flows.
const (
	StageSealedAppended = "sealed_appended"  // engine seal → WAL append (leader)
	StageAppendedFetch  = "appended_fetched" // WAL append → follower fetch (network + poll)
	StageFetchedApplied = "fetched_applied"  // follower fetch → replay applied
)

// Metrics is the replication log's instrument bundle. Registration is
// idempotent, so every Log attached to one hub (Log.SetObs) shares one
// bundle — per-tree label cardinality would not scale to a big forest.
// Lag and applied-sequence gauges live with the server wiring
// (cmd/dyntcd), which can see engines and replicas side by side.
type Metrics struct {
	// Appends counts waves appended to the change log.
	Appends *obs.Counter
	// AppendSeconds is the latency of one append: checksum verify, record
	// encode, ring insert and (when mirrored) the WAL write. Appends run
	// inline on the engine executor via the wave tap, so this is the
	// durability cost each mutating wave pays.
	AppendSeconds *obs.Histogram
	// Compactions counts log compactions started.
	Compactions *obs.Counter

	// SealedAppended, AppendedFetched, FetchedApplied attribute
	// replication lag to its three stages. The first is observed by
	// Log.Append on the leader; the other two by the follower's sync
	// loop. All three live in the dyntc_repl_stage_seconds family.
	SealedAppended  *obs.Histogram
	AppendedFetched *obs.Histogram
	FetchedApplied  *obs.Histogram
}

// NewMetrics registers the replog families on reg.
func NewMetrics(r *obs.Registry) *Metrics {
	stage := func(s string) *obs.Histogram {
		return r.Seconds("dyntc_repl_stage_seconds",
			"replication lag per pipeline stage (seal->append->fetch->apply)", "stage", s)
	}
	return &Metrics{
		Appends:         r.Counter("dyntc_replog_appends_total", "waves appended to the change log"),
		AppendSeconds:   r.Seconds("dyntc_replog_append_seconds", "wave append latency: verify, ring insert, WAL encode"),
		Compactions:     r.Counter("dyntc_replog_compactions_total", "log compactions started"),
		SealedAppended:  stage(StageSealedAppended),
		AppendedFetched: stage(StageAppendedFetch),
		FetchedApplied:  stage(StageFetchedApplied),
	}
}
