package engine_test

// The race-detector stress test: N client goroutines hammer one Engine
// with mixed grow / collapse / set / value traffic, and the final root
// value (plus every value-query answer along the way) is asserted against
// a sequential replay of the same client programs on a plain Expr. The
// live engine serves a bare contraction.
//
// Each client owns one region of the tree (the subtree under its assigned
// leaf) and runs a deterministic seeded program against it. Regions are
// disjoint, so (a) structural operations of different clients commute —
// replaying the clients one after another sequentially must yield the
// same final tree values as any concurrent interleaving — and (b) a value
// query inside a client's own region depends only on that client's
// earlier (program-ordered) operations, so the live answers are
// deterministic too and are compared against the replay exhaustively.

import (
	"sync"
	"testing"

	"dyntc"
	"dyntc/internal/core"
	"dyntc/internal/engine"
	"dyntc/internal/pram"
	"dyntc/internal/prng"
	"dyntc/internal/replog"
	"dyntc/internal/tree"
)

// applier abstracts "live through the engine" vs "sequential replay".
type applier interface {
	grow(leaf *dyntc.Node, op dyntc.Op, lv, rv int64) (*dyntc.Node, *dyntc.Node)
	collapse(n *dyntc.Node, v int64)
	set(leaf *dyntc.Node, v int64)
	value(n *dyntc.Node) int64
}

type liveApplier struct {
	t  *testing.T
	en *engine.Engine
}

func (a liveApplier) grow(leaf *dyntc.Node, op dyntc.Op, lv, rv int64) (*dyntc.Node, *dyntc.Node) {
	f := a.en.ApplyTo(leaf, replog.Op{Kind: replog.OpGrow, A: op.A, B: op.B, C: op.C, Left: lv, Right: rv})
	l, r, err := f.Pair()
	f.Recycle()
	if err != nil {
		a.t.Errorf("live grow: %v", err)
	}
	return l, r
}
func (a liveApplier) collapse(n *dyntc.Node, v int64) {
	a.wait("collapse", a.en.ApplyTo(n, replog.Op{Kind: replog.OpCollapse, Value: v}))
}
func (a liveApplier) set(leaf *dyntc.Node, v int64) {
	a.wait("set", a.en.ApplyTo(leaf, replog.Op{Kind: replog.OpSetLeaf, Value: v}))
}
func (a liveApplier) value(n *dyntc.Node) int64 {
	f := a.en.ApplyTo(n, replog.Op{Kind: replog.OpValue})
	v, err := f.Value()
	f.Recycle()
	if err != nil {
		a.t.Errorf("live value: %v", err)
	}
	return v
}
func (a liveApplier) wait(what string, f *engine.Future) {
	if err := f.Wait(); err != nil {
		a.t.Errorf("live %s: %v", what, err)
	}
	f.Recycle()
}

// coreHost serves a bare contraction (no Euler tour) to the engine.
type coreHost struct {
	t *tree.Tree
	c *core.Contraction
}

func (h coreHost) Tree() *tree.Tree                              { return h.t }
func (h coreHost) GrowBatch(ops []engine.GrowOp) [][2]*tree.Node { return h.c.AddLeaves(ops) }
func (h coreHost) CollapseBatch(ops []engine.CollapseOp)         { h.c.RemoveLeaves(ops) }
func (h coreHost) SetLeaves(ls []*tree.Node, vs []int64)         { h.c.SetValues(ls, vs) }
func (h coreHost) SetOps(ns []*tree.Node, ops []engine.OpT)      { h.c.SetOps(ns, ops) }
func (h coreHost) Values(ns []*tree.Node) []int64                { return h.c.ValuesBatch(ns) }
func (h coreHost) Root() int64                                   { return h.c.RootValue() }

type seqApplier struct{ e *dyntc.Expr }

func (a seqApplier) grow(leaf *dyntc.Node, op dyntc.Op, lv, rv int64) (*dyntc.Node, *dyntc.Node) {
	return a.e.Grow(leaf, op, lv, rv)
}
func (a seqApplier) collapse(n *dyntc.Node, v int64) { a.e.Collapse(n, v) }
func (a seqApplier) set(leaf *dyntc.Node, v int64)   { a.e.SetLeaf(leaf, v) }
func (a seqApplier) value(n *dyntc.Node) int64       { return a.e.Value(n) }

// frame is one grow the client has not collapsed yet: parent was a leaf,
// now internal with children left, right. Only the top frame's right
// child is ever grown further, so every left child stays a leaf and the
// top frame is always collapsible.
type frame struct{ parent, left, right *dyntc.Node }

// clientProgram replays deterministically: every choice depends only on
// the seeded rng and the stack depth.
type clientProgram struct {
	rng   *prng.Source
	ring  dyntc.Ring
	base  *dyntc.Node
	stack []frame
	vals  []int64 // value-query answers, in program order
}

func newClient(seed uint64, ring dyntc.Ring, base *dyntc.Node) *clientProgram {
	return &clientProgram{rng: prng.New(seed), ring: ring, base: base}
}

func (c *clientProgram) growTarget() *dyntc.Node {
	if len(c.stack) == 0 {
		return c.base
	}
	return c.stack[len(c.stack)-1].right
}

// settable returns a leaf of the client's region: a left child of some
// frame, the top frame's right child, or the base leaf.
func (c *clientProgram) settable() *dyntc.Node {
	k := len(c.stack)
	if k == 0 {
		return c.base
	}
	i := c.rng.Intn(k + 1)
	if i == k {
		return c.stack[k-1].right
	}
	return c.stack[i].left
}

// queryable returns any live node of the region.
func (c *clientProgram) queryable() *dyntc.Node {
	k := len(c.stack)
	if k == 0 {
		return c.base
	}
	f := c.stack[c.rng.Intn(k)]
	switch c.rng.Intn(3) {
	case 0:
		return f.parent
	case 1:
		return f.left
	}
	return f.right
}

const maxClientDepth = 24

func (c *clientProgram) step(a applier) {
	r := c.rng.Intn(100)
	switch {
	case r < 35 && len(c.stack) < maxClientDepth:
		target := c.growTarget()
		op := dyntc.OpAdd(c.ring)
		if c.rng.Intn(2) == 0 {
			op = dyntc.OpMul(c.ring)
		}
		lv, rv := int64(c.rng.Intn(1000)), int64(c.rng.Intn(1000))
		l, rt := a.grow(target, op, lv, rv)
		c.stack = append(c.stack, frame{parent: target, left: l, right: rt})
	case r < 55 && len(c.stack) > 0:
		f := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		a.collapse(f.parent, int64(c.rng.Intn(1000)))
	case r < 85:
		a.set(c.settable(), int64(c.rng.Intn(1000)))
	default:
		c.vals = append(c.vals, a.value(c.queryable()))
	}
}

// fanOut grows the single-leaf expression into n disjoint leaves
// (deterministically), one region root per client.
func fanOut(a applier, root *dyntc.Node, ring dyntc.Ring, n int) []*dyntc.Node {
	leaves := []*dyntc.Node{root}
	for len(leaves) < n {
		l, r := a.grow(leaves[0], dyntc.OpAdd(ring), 1, 1)
		leaves = append(leaves[1:], l, r)
	}
	return leaves
}

// runStress runs the oracle with clients concurrent client programs.
func runStress(t *testing.T, clients, opsPerClient int) {
	t.Helper()
	const seed = 7
	ring := dyntc.ModRing(1_000_000_007)

	// Live, concurrent run.
	tr := tree.New(ring, 1)
	live := coreHost{t: tr, c: core.New(tr, seed, pram.Sequential())}
	en := engine.New(live, engine.Options{})
	bases := fanOut(liveApplier{t: t, en: en}, tr.Root, ring, clients)
	progs := make([]*clientProgram, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		progs[i] = newClient(uint64(1000+i), ring, bases[i])
		wg.Add(1)
		go func(p *clientProgram) {
			defer wg.Done()
			a := liveApplier{t: t, en: en}
			for j := 0; j < opsPerClient; j++ {
				p.step(a)
			}
		}(progs[i])
	}
	wg.Wait()
	en.Close()
	liveRoot := live.Root()
	st := en.Stats()
	if st.Errors != 0 {
		t.Fatalf("live run produced %d validation errors", st.Errors)
	}

	// Sequential replay oracle: same programs, client after client, on a
	// plain Expr.
	replay := dyntc.NewExpr(ring, 1, dyntc.WithSeed(seed))
	rbases := fanOut(seqApplier{e: replay}, replay.Tree().Root, ring, clients)
	for i := 0; i < clients; i++ {
		p := newClient(uint64(1000+i), ring, rbases[i])
		a := seqApplier{e: replay}
		for j := 0; j < opsPerClient; j++ {
			p.step(a)
		}
		// Every value query must have returned the same answer live.
		if len(p.vals) != len(progs[i].vals) {
			t.Fatalf("client %d: %d live value queries vs %d replayed",
				i, len(progs[i].vals), len(p.vals))
		}
		for j := range p.vals {
			if p.vals[j] != progs[i].vals[j] {
				t.Fatalf("client %d value query %d: live %d, replay %d",
					i, j, progs[i].vals[j], p.vals[j])
			}
		}
	}
	if replay.Root() != liveRoot {
		t.Fatalf("root: live %d, sequential replay %d", liveRoot, replay.Root())
	}
	t.Logf("clients=%d ops/client=%d root=%d meanFlush=%.2f meanWave=%.2f maxFlush=%d",
		clients, opsPerClient, liveRoot, st.MeanFlush(), st.MeanWave(), st.MaxFlush)
}

func TestStressOracle(t *testing.T) {
	runStress(t, 8, 200)
}

func TestStressOracleManyClients(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runStress(t, 32, 150)
}
