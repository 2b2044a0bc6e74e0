package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"

	"dyntc/internal/prng"
	"dyntc/internal/tree"
)

// This file holds the seeded op-stream generators. A generator is pure: it
// sees only its seed and the initial tree, predicts every node ID the
// program under test will assign (IDs are dense and append-only), and
// never looks at a result. The same stream therefore replays unchanged on
// every rung of the cost ladder and on the naive oracle.

type opKind uint8

const (
	opGrow opKind = iota
	opCollapse
	opSetLeaf
	opSetOp
	opValue
	opRoot
	opQuery // cross-tree root sum (serve-wal only)
	numOpKinds
)

// op is one tree operation, addressed by dense node ID.
type op struct {
	kind opKind
	mul  bool  // grow / set-op operator: × when set, + otherwise
	node int32 // target node
	a, b int64 // grow: new left/right values; set-leaf, collapse: a is the new value
}

// request is one call a user makes: a homogeneous batch on the in-process
// workloads, a single op on engine-pipe, a mixed batch or a query on
// serve-wal.
type request struct {
	tree int // index of the target tree (serve-wal), 0 elsewhere
	ops  []op
}

// streamHash fingerprints a request sequence (same seed ⇒ same hash).
type streamHash struct{ h hash.Hash64 }

func newStreamHash() *streamHash { return &streamHash{h: fnv.New64a()} }

func (s *streamHash) add(r *request) {
	var buf [32]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(r.tree))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(r.ops)))
	s.h.Write(buf[:8])
	for i := range r.ops {
		o := &r.ops[i]
		buf[0] = byte(o.kind)
		buf[1] = 0
		if o.mul {
			buf[1] = 1
		}
		binary.LittleEndian.PutUint32(buf[2:], uint32(o.node))
		binary.LittleEndian.PutUint64(buf[6:], uint64(o.a))
		binary.LittleEndian.PutUint64(buf[14:], uint64(o.b))
		s.h.Write(buf[:22])
	}
}

func (s *streamHash) sum() uint64 { return s.h.Sum64() }

// idSet is a set of node IDs with O(1) add, remove and uniform pick.
type idSet struct {
	ids []int32
	pos []int32 // pos[id] = index into ids, or -1
}

func (s *idSet) has(id int32) bool { return int(id) < len(s.pos) && s.pos[id] >= 0 }

func (s *idSet) add(id int32) {
	for int(id) >= len(s.pos) {
		s.pos = append(s.pos, -1)
	}
	s.pos[id] = int32(len(s.ids))
	s.ids = append(s.ids, id)
}

func (s *idSet) remove(id int32) {
	if !s.has(id) {
		return
	}
	i, last := s.pos[id], s.ids[len(s.ids)-1]
	s.ids[i], s.pos[last] = last, i
	s.ids = s.ids[:len(s.ids)-1]
	s.pos[id] = -1
}

// take removes and returns a uniformly random member.
func (s *idSet) take(src *prng.Source) int32 {
	id := s.ids[src.Intn(len(s.ids))]
	s.remove(id)
	return id
}

func (s *idSet) pick(src *prng.Source) int32 { return s.ids[src.Intn(len(s.ids))] }

// model mirrors the shape of one expression tree by node ID: enough to
// keep the leaf, cherry (internal node with two leaf children) and
// internal sets current in O(1) per structural op, and to predict the IDs
// a grow assigns.
type model struct {
	parent, left, right         []int32
	leaves, cherries, internals idSet
}

func newModel(t *tree.Tree) *model {
	n := len(t.Nodes)
	m := &model{parent: make([]int32, n), left: make([]int32, n), right: make([]int32, n)}
	id := func(x *tree.Node) int32 {
		if x == nil {
			return -1
		}
		return int32(x.ID)
	}
	for i, x := range t.Nodes {
		if x == nil {
			m.parent[i], m.left[i], m.right[i] = -1, -1, -1
			continue
		}
		m.parent[i], m.left[i], m.right[i] = id(x.Parent), id(x.Left), id(x.Right)
	}
	for i, x := range t.Nodes {
		switch {
		case x == nil:
		case x.IsLeaf():
			m.leaves.add(int32(i))
		default:
			m.internals.add(int32(i))
			if x.Left.IsLeaf() && x.Right.IsLeaf() {
				m.cherries.add(int32(i))
			}
		}
	}
	return m
}

func (m *model) isLeaf(id int32) bool { return m.left[id] < 0 }

// grow turns leaf l into a cherry; its children get the next two IDs.
func (m *model) grow(l int32) {
	a := int32(len(m.parent))
	b := a + 1
	m.parent = append(m.parent, l, l)
	m.left = append(m.left, -1, -1)
	m.right = append(m.right, -1, -1)
	m.left[l], m.right[l] = a, b
	m.leaves.remove(l)
	m.leaves.add(a)
	m.leaves.add(b)
	m.internals.add(l)
	m.cherries.add(l)
	if p := m.parent[l]; p >= 0 {
		m.cherries.remove(p)
	}
}

// collapse turns cherry n back into a leaf.
func (m *model) collapse(n int32) {
	m.leaves.remove(m.left[n])
	m.leaves.remove(m.right[n])
	m.left[n], m.right[n] = -1, -1
	m.cherries.remove(n)
	m.internals.remove(n)
	m.leaves.add(n)
	if p := m.parent[n]; p >= 0 && m.isLeaf(m.left[p]) && m.isLeaf(m.right[p]) {
		m.cherries.add(p)
	}
}

// churnGen drives struct-64k: waves of k grows followed by k collapses, so
// the tree keeps its size while its shape drifts.
type churnGen struct {
	src  *prng.Source
	m    *model
	maxK int // caps the wave size (quick runs on small trees)
}

func newChurnGen(seed uint64, t *tree.Tree, maxK int) *churnGen {
	return &churnGen{src: prng.New(seed), m: newModel(t), maxK: maxK}
}

// wave returns the two requests of one wave of size k. All targets are
// drawn from the pre-batch sets, as the batch entry points require.
func (g *churnGen) wave(k int) [2]request {
	grows := make([]op, k)
	for i := range grows {
		grows[i] = op{kind: opGrow, node: g.m.leaves.take(g.src), mul: g.src.Intn(2) == 1,
			a: g.src.Int63(), b: g.src.Int63()}
	}
	for i := range grows {
		g.m.grow(grows[i].node)
	}
	collapses := make([]op, k)
	for i := range collapses {
		collapses[i] = op{kind: opCollapse, node: g.m.cherries.take(g.src), a: g.src.Int63()}
	}
	for i := range collapses {
		g.m.collapse(collapses[i].node)
	}
	return [2]request{{ops: grows}, {ops: collapses}}
}

type waveMix []struct{ waves, k int }

// structCycle is one struct-64k cycle: |U| swept over three decades.
// structWarmup touches each size once before timing starts.
var (
	structCycle  = waveMix{{256, 1}, {16, 16}, {1, 256}}
	structWarmup = waveMix{{32, 1}, {4, 16}, {1, 256}}
)

func (g *churnGen) run(mix waveMix) []request {
	var out []request
	for _, w := range mix {
		for i := 0; i < w.waves; i++ {
			pair := g.wave(min(w.k, g.maxK))
			out = append(out, pair[0], pair[1])
		}
	}
	return out
}

func (g *churnGen) warmup() []request { return g.run(structWarmup) }
func (g *churnGen) cycle() []request  { return g.run(structCycle) }

// labelGen drives label-path-64k: batches of label writes and value reads
// on a tree whose shape never changes.
type labelGen struct {
	src               *prng.Source
	leaves, internals []int32
	k                 int // batch size
}

func newLabelGen(seed uint64, t *tree.Tree, k int) *labelGen {
	m := newModel(t)
	return &labelGen{src: prng.New(seed), leaves: m.leaves.ids, internals: m.internals.ids, k: k}
}

// distinct returns k distinct members of ids (a partial Fisher–Yates
// shuffle in place; ids stays a permutation of itself).
func distinct(src *prng.Source, ids []int32, k int) []int32 {
	for i := 0; i < k; i++ {
		j := i + src.Intn(len(ids)-i)
		ids[i], ids[j] = ids[j], ids[i]
	}
	return append([]int32(nil), ids[:k]...)
}

const (
	labelSetLeaves = 16 // SetLeaves calls per cycle
	labelSetOps    = 2  // SetOps calls per cycle
)

func (g *labelGen) warmup() []request { return g.cycle() }

func (g *labelGen) cycle() []request {
	k := g.k
	out := make([]request, 0, labelSetLeaves+labelSetOps+1)
	for i := 0; i < labelSetLeaves; i++ {
		ops := make([]op, k)
		for j, id := range distinct(g.src, g.leaves, k) {
			ops[j] = op{kind: opSetLeaf, node: id, a: g.src.Int63()}
		}
		out = append(out, request{ops: ops})
	}
	for i := 0; i < labelSetOps; i++ {
		ops := make([]op, k)
		for j, id := range distinct(g.src, g.internals, k) {
			ops[j] = op{kind: opSetOp, node: id, mul: g.src.Intn(2) == 1}
		}
		out = append(out, request{ops: ops})
	}
	ops := make([]op, k)
	for j, id := range distinct(g.src, g.internals, k) {
		ops[j] = op{kind: opValue, node: id}
	}
	return append(out, request{ops: ops})
}

// pipeGen is one engine-pipe producer. It writes only nodes it owns — its
// share of the initial leaves, some of them reserved as grow/collapse
// sites — so the final tree does not depend on how the producers'
// requests interleave. Reads go anywhere.
type pipeGen struct {
	src       *prng.Source
	leaves    []int32 // owned set-leaf targets
	sites     []int32 // owned leaves that toggle between leaf and cherry
	grown     []bool
	toggled   []int // index of the op that last toggled each site
	n         int   // ops generated so far
	internals []int32
}

const pipeSites = 256 // structural sites per producer

func newPipeGens(seed uint64, t *tree.Tree, producers int) []*pipeGen {
	m := newModel(t)
	gens := make([]*pipeGen, producers)
	for p := range gens {
		gens[p] = &pipeGen{src: prng.New(seed + uint64(p)*0x9E3779B97F4A7C15), internals: m.internals.ids}
	}
	for i, id := range m.leaves.ids {
		g := gens[i%producers]
		if len(g.sites) < pipeSites && len(g.sites) < len(m.leaves.ids)/(4*producers) {
			g.sites = append(g.sites, id)
		} else {
			g.leaves = append(g.leaves, id)
		}
	}
	for _, g := range gens {
		g.grown = make([]bool, len(g.sites))
		g.toggled = make([]int, len(g.sites))
		for i := range g.toggled {
			g.toggled[i] = -pipeDepth
		}
	}
	return gens
}

// next draws 60% set-leaf, 25% value, 5% root, 10% grow/collapse.
//
// A site is left alone until its previous toggle is pipeDepth ops old and
// so has been redeemed: the engine validates a request against the tree as
// it stands when the wave is planned, and fails a collapse whose grow is
// still waiting in the same wave.
func (g *pipeGen) next() op {
	g.n++
	switch r := g.src.Intn(100); {
	case r < 60:
		return op{kind: opSetLeaf, node: g.leaves[g.src.Intn(len(g.leaves))], a: g.src.Int63()}
	case r < 85:
		return op{kind: opValue, node: g.internals[g.src.Intn(len(g.internals))]}
	case r < 90:
		return op{kind: opRoot}
	}
	i := g.src.Intn(len(g.sites))
	for g.n-g.toggled[i] <= pipeDepth {
		i = (i + 1) % len(g.sites)
	}
	g.toggled[i] = g.n
	g.grown[i] = !g.grown[i]
	if g.grown[i] {
		return op{kind: opGrow, node: g.sites[i], mul: g.src.Intn(2) == 1, a: g.src.Int63(), b: g.src.Int63()}
	}
	return op{kind: opCollapse, node: g.sites[i], a: g.src.Int63()}
}

// serveGen is one serve-wal connection. It owns its trees outright, so
// per-tree order, the IDs grows assign and the oracle are all
// deterministic however the two connections interleave.
type serveGen struct {
	src    *prng.Source
	trees  []int // indices of the owned trees
	models []*model
	n      int // requests generated so far
}

const (
	serveSets       = 5  // set-leaf ops per batch request
	serveQueryEvery = 16 // one request in this many is a cross-tree query
)

func newServeGen(seed uint64, conn int, trees []int, ts []*tree.Tree) *serveGen {
	g := &serveGen{src: prng.New(seed + uint64(conn+1)*0x9E3779B97F4A7C15), trees: trees}
	for _, ti := range trees {
		g.models = append(g.models, newModel(ts[ti]))
	}
	return g
}

// next returns the connection's next request. A batch touches pairwise
// disjoint nodes and ends with its read, so whatever way the server
// splits it into waves the read sees all seven writes.
func (g *serveGen) next() request {
	g.n++
	if g.n%serveQueryEvery == 0 {
		return request{tree: -1, ops: []op{{kind: opQuery}}}
	}
	i := g.src.Intn(len(g.trees))
	m := g.models[i]
	ops := make([]op, 0, serveSets+3)
	cherry := m.cherries.take(g.src)
	m.leaves.remove(m.left[cherry])
	m.leaves.remove(m.right[cherry])
	grow := m.leaves.take(g.src)
	for j := 0; j < serveSets; j++ {
		ops = append(ops, op{kind: opSetLeaf, node: m.leaves.take(g.src), a: g.src.Int63()})
	}
	for _, o := range ops {
		m.leaves.add(o.node)
	}
	ops = append(ops,
		op{kind: opGrow, node: grow, mul: g.src.Intn(2) == 1, a: g.src.Int63(), b: g.src.Int63()},
		op{kind: opCollapse, node: cherry, a: g.src.Int63()})
	m.grow(grow)
	m.collapse(cherry)
	ops = append(ops, op{kind: opValue, node: m.internals.pick(g.src)})
	return request{tree: g.trees[i], ops: ops}
}
