package rbsts

import (
	"math"
	"sort"

	"dyntc/internal/pram"
)

// Activation is an identified parse tree PT(U): the update-set leaves plus
// all of their ancestors, with every node's ACTIVE flag set. Activate
// hands out the tree's own instance, so Release must be called, and the
// activation dropped, before the next activation on the same tree.
type Activation[P, S any] struct {
	// Nodes is every node of PT(U), deduplicated (each node appears once,
	// recorded by the processor that won its test-and-set).
	Nodes []*Node[P, S]
	// Procs is the number of processor slots the startup procedure used
	// (Theorem 2.1's processor bound is checked against this).
	Procs int
}

// Release clears all ACTIVE flags in one parallel round.
func (a *Activation[P, S]) Release(m *pram.Machine) {
	if m == nil {
		m = pram.Sequential()
	}
	nodes := a.Nodes
	m.Step(len(nodes), func(i int) { pram.Clear(&nodes[i].active) })
}

// IsActive reports whether a node is currently marked.
func (n *Node[P, S]) IsActive() bool { return pram.IsSet(&n.active) }

// actProc is a stage-2 processor of Theorem 2.1's startup procedure. It is
// responsible for marking the ancestors of node at depths [low, node.depth).
type actProc[P, S any] struct {
	node *Node[P, S]
	// low is the shallow end of the processor's responsibility range; it
	// always equals the depth of the node's shortcut entry scIdx.
	low   int32
	scIdx int32
}

// actScratch is Activate's per-round storage, owned by the tree and
// reused from activation to activation.
type actScratch[P, S any] struct {
	frontier, seeds, next, seedSlot, markSlot []*Node[P, S]
	running, final, spawnSlot                 []actProc[P, S]
	spawnOK                                   []bool
	activeIdx                                 []int
}

// zeroed returns s resized to n zero elements, reusing its storage.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// cutoff is the range size log(|U|·log n) at which range splitting stops
// and processors walk sequentially (Theorem 2.1's final stage).
func cutoff(u, n int) int32 {
	if u < 1 {
		u = 1
	}
	if n < 4 {
		n = 4
	}
	c := int32(math.Ceil(math.Log2(float64(u) * math.Log2(float64(n)))))
	if c < 1 {
		c = 1
	}
	return c
}

// Activate identifies and activates the parse tree PT(U) for the given
// update-set leaves, following Theorem 2.1:
//
//  1. every leaf walks up marking nodes until it reaches a node carrying a
//     shortcut list (O(log log n) rounds, since height strictly increases
//     along any root path and shortcuts appear at height ≈ log log n);
//  2. each such seed repeatedly splits its depth range [low, d] by
//     advancing one shortcut entry (ranges shrink geometrically by 2/3)
//     and forks a processor at the shortcut target to cover the shallow
//     part, until every range is at most log(|U| log n);
//  3. every processor walks its residual range sequentially, marking via
//     test-and-set.
//
// Duplicate processors for a node are permitted (the fork simply loses the
// test-and-set); this keeps the rounds race-free and only affects constant
// factors, not the O(|U|·log n / log(|U| log n)) processor bound, which is
// charged per leaf exactly as in the paper's proof.
//
// The activation and every per-round list are the tree's, so a warm
// activation allocates nothing.
func (t *Tree[P, S]) Activate(m *pram.Machine, leaves []*Node[P, S]) *Activation[P, S] {
	if m == nil {
		m = pram.Sequential()
	}
	act := &t.act
	act.Nodes, act.Procs = act.Nodes[:0], 0
	if len(leaves) == 0 || t.root == 0 {
		return act
	}
	w := &t.actWork
	procs := len(leaves)

	// Initial round: mark the update-set leaves themselves.
	markSlot := zeroed(w.markSlot, len(leaves))
	m.Step(len(leaves), func(i int) {
		if pram.TestAndSet(&leaves[i].active) {
			markSlot[i] = leaves[i]
		}
	})
	for _, n := range markSlot {
		if n != nil {
			act.Nodes = append(act.Nodes, n)
		}
	}

	// Stage 1: walk up to the first shortcut-bearing node (or the root).
	frontier := append(w.frontier[:0], act.Nodes...)
	seeds := w.seeds[:0]
	for len(frontier) > 0 {
		next := zeroed(w.next, len(frontier))
		seedSlot := zeroed(w.seedSlot, len(frontier))
		markSlot = zeroed(markSlot, len(frontier))
		m.Step(len(frontier), func(i int) {
			p := t.Node(frontier[i].parent)
			if p == nil {
				return
			}
			if !pram.TestAndSet(&p.active) {
				return // another processor owns everything above
			}
			markSlot[i] = p
			if p.sc != 0 {
				seedSlot[i] = p
			} else if p.parent != 0 {
				next[i] = p
			}
		})
		frontier = frontier[:0]
		for i := range next {
			if markSlot[i] != nil {
				act.Nodes = append(act.Nodes, markSlot[i])
			}
			if seedSlot[i] != nil {
				seeds = append(seeds, seedSlot[i])
			}
			if next[i] != nil {
				frontier = append(frontier, next[i])
			}
		}
		w.next, w.seedSlot = next, seedSlot
	}

	// Stage 2: geometric range splitting along shortcut lists.
	cut := cutoff(len(leaves), t.count)
	running := w.running[:0]
	for _, s := range seeds {
		running = append(running, actProc[P, S]{node: s, low: 0, scIdx: 0})
	}
	procs += len(running)
	final := w.final[:0]
	for {
		// Partition off processors whose range is small enough.
		still := running[:0]
		for _, p := range running {
			if p.node.depth-p.low <= cut || int(p.scIdx)+1 >= len(t.shortcuts(p.node)) {
				final = append(final, p)
			} else {
				still = append(still, p)
			}
		}
		running = still
		if len(running) == 0 {
			break
		}
		spawnSlot := zeroed(w.spawnSlot, len(running))
		spawnOK := zeroed(w.spawnOK, len(running))
		markSlot = zeroed(markSlot, len(running))
		m.Step(len(running), func(i int) {
			p := &running[i]
			x := t.at(t.shortcuts(p.node)[p.scIdx+1])
			delegatedLow := p.low
			p.scIdx++
			p.low = x.depth
			if pram.TestAndSet(&x.active) {
				markSlot[i] = x
			}
			// Fork a processor at x covering [delegatedLow, x.depth]. Its
			// shortcut index is the deepest entry not below delegatedLow
			// (the paper's "unique value k"; found here by binary search,
			// which the paper computes in O(1) from the closed form). A
			// target without shortcuts (possible transiently between
			// rebuilds) degrades to a plain walker over the whole range.
			xsc := t.shortcuts(x)
			if len(xsc) == 0 {
				spawnSlot[i] = actProc[P, S]{node: x, low: delegatedLow, scIdx: 0}
			} else {
				k := sort.Search(len(xsc), func(j int) bool {
					return t.at(xsc[j]).depth > delegatedLow
				}) - 1
				if k < 0 {
					k = 0
				}
				low := t.at(xsc[k]).depth
				if low > delegatedLow {
					low = delegatedLow
				}
				spawnSlot[i] = actProc[P, S]{node: x, low: low, scIdx: int32(k)}
			}
			spawnOK[i] = true
		})
		for i := range spawnSlot {
			if markSlot[i] != nil {
				act.Nodes = append(act.Nodes, markSlot[i])
			}
			if spawnOK[i] {
				running = append(running, spawnSlot[i])
				procs++
			}
		}
		w.spawnSlot, w.spawnOK = spawnSlot, spawnOK
	}

	// Stage 3: each processor walks its residual range one level per
	// round. A walker's position replaces its node in final.
	walkers := final
	for i := range walkers {
		walkers[i].node = t.Node(walkers[i].node.parent)
	}
	for {
		markSlot = zeroed(markSlot, len(walkers))
		activeIdx := w.activeIdx[:0]
		for i, p := range walkers {
			if p.node != nil && p.node.depth >= p.low {
				activeIdx = append(activeIdx, i)
			}
		}
		w.activeIdx = activeIdx
		if len(activeIdx) == 0 {
			break
		}
		m.Step(len(activeIdx), func(j int) {
			i := activeIdx[j]
			pos := walkers[i].node
			if pram.TestAndSet(&pos.active) {
				markSlot[i] = pos
			}
			walkers[i].node = t.Node(pos.parent)
		})
		for _, i := range activeIdx {
			if markSlot[i] != nil {
				act.Nodes = append(act.Nodes, markSlot[i])
			}
		}
	}

	w.frontier, w.seeds, w.markSlot, w.running, w.final = frontier, seeds, markSlot, running, walkers
	act.Procs = procs
	return act
}

// NaiveActivate is the baseline without shortcuts (§2's "the best we can do
// is follow the parent links"): every leaf walks to the root, Θ(depth)
// rounds. The E11 ablation baseline (TestActivationFasterThanNaive) and a
// correctness oracle. It allocates its own Activation.
func (t *Tree[P, S]) NaiveActivate(m *pram.Machine, leaves []*Node[P, S]) *Activation[P, S] {
	if m == nil {
		m = pram.Sequential()
	}
	act := &Activation[P, S]{Procs: len(leaves)}
	if len(leaves) == 0 || t.root == 0 {
		return act
	}
	frontier := make([]*Node[P, S], 0, len(leaves))
	markSlot := make([]*Node[P, S], len(leaves))
	m.Step(len(leaves), func(i int) {
		if pram.TestAndSet(&leaves[i].active) {
			markSlot[i] = leaves[i]
		}
	})
	for _, n := range markSlot {
		if n != nil {
			act.Nodes = append(act.Nodes, n)
			frontier = append(frontier, n)
		}
	}
	for len(frontier) > 0 {
		next := make([]*Node[P, S], len(frontier))
		m.Step(len(frontier), func(i int) {
			p := t.Node(frontier[i].parent)
			if p != nil && pram.TestAndSet(&p.active) {
				next[i] = p
			}
		})
		frontier = frontier[:0]
		for _, p := range next {
			if p != nil {
				act.Nodes = append(act.Nodes, p)
				frontier = append(frontier, p)
			}
		}
	}
	return act
}
