package rbsts

import (
	"math"
	"sort"

	"dyntc/internal/pram"
)

// Activation is an identified parse tree PT(U): the update-set leaves plus
// all of their ancestors, with every node's ACTIVE flag set. Release must
// be called before the next activation on the same tree.
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
	// always equals the depth of node.shortcuts[scIdx].
	low   int
	scIdx int
}

// cutoff is the range size log(|U|·log n) at which range splitting stops
// and processors walk sequentially (Theorem 2.1's final stage).
func cutoff(u, n int) int {
	if u < 1 {
		u = 1
	}
	if n < 4 {
		n = 4
	}
	c := int(math.Ceil(math.Log2(float64(u) * math.Log2(float64(n)))))
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
func (t *Tree[P, S]) Activate(m *pram.Machine, leaves []*Node[P, S]) *Activation[P, S] {
	if m == nil {
		m = pram.Sequential()
	}
	act := &Activation[P, S]{}
	if len(leaves) == 0 || t.root == nil {
		return act
	}
	procs := len(leaves)

	// Initial round: mark the update-set leaves themselves.
	marked := make([][]*Node[P, S], len(leaves))
	m.Step(len(leaves), func(i int) {
		if pram.TestAndSet(&leaves[i].active) {
			marked[i] = append(marked[i], leaves[i])
		}
	})
	for _, ms := range marked {
		act.Nodes = append(act.Nodes, ms...)
	}

	// Stage 1: walk up to the first shortcut-bearing node (or the root).
	frontier := append([]*Node[P, S](nil), act.Nodes...)
	var seeds []*Node[P, S]
	for len(frontier) > 0 {
		next := make([]*Node[P, S], len(frontier))
		seedSlot := make([]*Node[P, S], len(frontier))
		markSlot := make([]*Node[P, S], len(frontier))
		m.Step(len(frontier), func(i int) {
			p := frontier[i].parent
			if p == nil {
				return
			}
			if !pram.TestAndSet(&p.active) {
				return // another processor owns everything above
			}
			markSlot[i] = p
			if p.shortcuts != nil {
				seedSlot[i] = p
			} else if p.parent != nil {
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
	}

	// Stage 2: geometric range splitting along shortcut lists.
	cut := cutoff(len(leaves), t.count)
	var running []actProc[P, S]
	for _, s := range seeds {
		running = append(running, actProc[P, S]{node: s, low: 0, scIdx: 0})
	}
	procs += len(running)
	var final []actProc[P, S]
	for {
		// Partition off processors whose range is small enough.
		still := running[:0]
		for _, p := range running {
			if p.node.depth-p.low <= cut || p.scIdx+1 >= len(p.node.shortcuts) {
				final = append(final, p)
			} else {
				still = append(still, p)
			}
		}
		running = still
		if len(running) == 0 {
			break
		}
		spawnSlot := make([]actProc[P, S], len(running))
		spawnOK := make([]bool, len(running))
		markSlot := make([]*Node[P, S], len(running))
		m.Step(len(running), func(i int) {
			p := &running[i]
			w := p.node.shortcuts[p.scIdx+1]
			delegatedLow := p.low
			p.scIdx++
			p.low = w.depth
			if pram.TestAndSet(&w.active) {
				markSlot[i] = w
			}
			// Fork a processor at w covering [delegatedLow, w.depth]. Its
			// shortcut index is the deepest entry not below delegatedLow
			// (the paper's "unique value k"; found here by binary search,
			// which the paper computes in O(1) from the closed form). A
			// target without shortcuts (possible transiently between
			// rebuilds) degrades to a plain walker over the whole range.
			if len(w.shortcuts) == 0 {
				spawnSlot[i] = actProc[P, S]{node: w, low: delegatedLow, scIdx: 0}
			} else {
				k := sort.Search(len(w.shortcuts), func(j int) bool {
					return w.shortcuts[j].depth > delegatedLow
				}) - 1
				if k < 0 {
					k = 0
				}
				low := w.shortcuts[k].depth
				if low > delegatedLow {
					low = delegatedLow
				}
				spawnSlot[i] = actProc[P, S]{node: w, low: low, scIdx: k}
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
	}

	// Stage 3: each processor walks its residual range one level per round.
	walkers := final
	positions := make([]*Node[P, S], len(walkers))
	for i, p := range walkers {
		positions[i] = p.node.parent
	}
	for {
		any := false
		markSlot := make([]*Node[P, S], len(walkers))
		activeIdx := make([]int, 0, len(walkers))
		for i, pos := range positions {
			if pos != nil && pos.depth >= walkers[i].low {
				activeIdx = append(activeIdx, i)
				any = true
			}
		}
		if !any {
			break
		}
		m.Step(len(activeIdx), func(j int) {
			i := activeIdx[j]
			pos := positions[i]
			if pram.TestAndSet(&pos.active) {
				markSlot[i] = pos
			}
			positions[i] = pos.parent
		})
		for _, i := range activeIdx {
			if markSlot[i] != nil {
				act.Nodes = append(act.Nodes, markSlot[i])
			}
		}
	}

	act.Procs = procs
	return act
}

// NaiveActivate is the baseline without shortcuts (§2's "the best we can do
// is follow the parent links"): every leaf walks to the root, Θ(depth)
// rounds. The E11 ablation baseline (TestActivationFasterThanNaive) and a
// correctness oracle.
func (t *Tree[P, S]) NaiveActivate(m *pram.Machine, leaves []*Node[P, S]) *Activation[P, S] {
	if m == nil {
		m = pram.Sequential()
	}
	act := &Activation[P, S]{Procs: len(leaves)}
	if len(leaves) == 0 || t.root == nil {
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
			p := frontier[i].parent
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
