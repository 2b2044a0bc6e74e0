package dyntc

// Deprecated: WithWorkers is a no-op; PRAM steps run inline on the caller.
func WithWorkers(int) Option { return func(*options) {} }

// Deprecated: SchedPool is an empty stand-in for the removed scheduler.
type SchedPool struct{}

// Deprecated: SchedStats is always zero.
type SchedStats struct {
	Tasks       uint64  `json:"tasks"`
	Steals      uint64  `json:"steals"`
	Loops       uint64  `json:"loops"`
	Utilization float64 `json:"utilization"`
}

var defaultSchedPool SchedPool

// Deprecated: NewSchedPool returns a pool that does nothing.
func NewSchedPool(int) *SchedPool { return &SchedPool{} }

// Deprecated: DefaultSchedPool returns a pool that does nothing.
func DefaultSchedPool() *SchedPool { return &defaultSchedPool }

// Deprecated: Stats returns zero.
func (*SchedPool) Stats() SchedStats { return SchedStats{} }

// Deprecated: Close does nothing.
func (*SchedPool) Close() {}
