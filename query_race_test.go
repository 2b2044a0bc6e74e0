package dyntc_test

// The fan-out-vs-mutation oracle: a forest-wide sum taken while every
// tree is under concurrent mutation load must equal, tree by tree, a
// sequential replay of that tree's wave change-log up to exactly the
// applied-wave sequence the query reported for it. This pins the query
// engine's central claim — per-tree results are consistent snapshots at
// their reported sequences, with no global barrier — against the
// replication machinery, across multiple seeds, under the race detector.

import (
	"sync"
	"testing"

	"dyntc"
	"dyntc/internal/prng"
)

// queryMutator drives one tree with a stack-shaped grow/collapse/set
// discipline (only the top frame's right child grows, so the top frame
// is always collapsible), addressed by dense node ids.
type queryMutator struct {
	en    *dyntc.Engine
	rng   *prng.Source
	stack [][3]int // parent, left, right
}

func (m *queryMutator) step(t *testing.T) {
	r := m.rng.Intn(100)
	switch {
	case r < 40 && len(m.stack) < 12:
		target := 0
		if k := len(m.stack); k > 0 {
			target = m.stack[k-1][2]
		}
		l, rt, err := m.en.GrowID(target, dyntc.OpAdd(dyntc.ModRing(1_000_000_007)),
			int64(m.rng.Intn(1000)), int64(m.rng.Intn(1000)))
		if err != nil {
			t.Errorf("grow: %v", err)
			return
		}
		m.stack = append(m.stack, [3]int{target, l, rt})
	case r < 55 && len(m.stack) > 0:
		f := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		if err := m.en.CollapseID(f[0], int64(m.rng.Intn(1000))); err != nil {
			t.Errorf("collapse: %v", err)
		}
	default:
		leaf := 0
		if k := len(m.stack); k > 0 {
			if i := m.rng.Intn(k + 1); i == k {
				leaf = m.stack[k-1][2]
			} else {
				leaf = m.stack[i][1]
			}
		}
		if err := m.en.SetLeafID(leaf, int64(m.rng.Intn(1000))); err != nil {
			t.Errorf("set-leaf: %v", err)
		}
	}
}

func TestRaceForestQueryOracle(t *testing.T) {
	for _, seed := range []uint64{3, 17, 101} {
		seed := seed
		t.Run("", func(t *testing.T) {
			ring := dyntc.ModRing(1_000_000_007)
			const trees = 8
			const opsPerTree = 150
			const queries = 12

			forest := dyntc.NewForest(dyntc.BatchOptions{})
			defer forest.Close()

			ids := make([]dyntc.TreeID, trees)
			engines := make([]*dyntc.Engine, trees)
			logs := make([]*dyntc.WaveLog, trees)
			genesis := make([][]byte, trees)
			for i := 0; i < trees; i++ {
				id, en := forest.Create(ring, int64(i+1), dyntc.WithSeed(seed+uint64(i)))
				wl, err := dyntc.NewWaveLog(1<<14, "")
				if err != nil {
					t.Fatal(err)
				}
				// Tap before traffic (gapless log), snapshot at seq 0.
				en.SetWaveTap(func(w dyntc.Wave) { _ = wl.Append(w) })
				snap, err := en.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				ids[i], engines[i], logs[i], genesis[i] = id, en, wl, snap
			}

			// Mutators hammer every tree while the querier fans out.
			var wg sync.WaitGroup
			for i := 0; i < trees; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					m := &queryMutator{en: engines[i], rng: prng.New(seed + 1000*uint64(i))}
					for j := 0; j < opsPerTree; j++ {
						m.step(t)
					}
				}(i)
			}

			results := make([]dyntc.QueryResult, 0, queries)
			for q := 0; q < queries; q++ {
				res, err := forest.Query(dyntc.ForestQuery{
					Select:  dyntc.QueryAll(),
					Read:    dyntc.ReadRoot(),
					Combine: dyntc.CombineSum(),
					Detail:  true,
				})
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, res)
			}
			wg.Wait()

			// One more query on the quiesced forest: its seqs are final.
			final, err := forest.Query(dyntc.ForestQuery{Read: dyntc.ReadRoot(), Combine: dyntc.CombineSum(), Detail: true})
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, final)

			// Oracle: per tree, a follower replays the wave log to each
			// reported sequence — the value must match exactly. Queries ran
			// sequentially, so per-tree sequences are non-decreasing and one
			// follower per tree advances monotonically.
			followers := make(map[dyntc.TreeID]*dyntc.Follower, trees)
			waves := make(map[dyntc.TreeID][]dyntc.Wave, trees)
			for i := 0; i < trees; i++ {
				fo, err := dyntc.NewFollower(genesis[i])
				if err != nil {
					t.Fatal(err)
				}
				ws, err := logs[i].Since(0)
				if err != nil {
					t.Fatal(err)
				}
				followers[ids[i]], waves[ids[i]] = fo, ws
			}
			for qi, res := range results {
				if res.Errors != 0 || res.Trees != trees {
					t.Fatalf("query %d: %d trees, %d errors", qi, res.Trees, res.Errors)
				}
				var sum int64
				for _, tr := range res.Detail {
					fo := followers[tr.Tree]
					if fo.Seq() > tr.Seq {
						t.Fatalf("query %d tree %d: seq %d went backwards (follower at %d)",
							qi, tr.Tree, tr.Seq, fo.Seq())
					}
					for _, w := range waves[tr.Tree] {
						if w.Seq > tr.Seq {
							break
						}
						if err := fo.Apply(w); err != nil {
							t.Fatalf("query %d tree %d: replay to %d: %v", qi, tr.Tree, tr.Seq, err)
						}
					}
					if fo.Seq() != tr.Seq {
						t.Fatalf("query %d tree %d: log has no wave %d (follower at %d)",
							qi, tr.Tree, tr.Seq, fo.Seq())
					}
					if got := fo.Root(); got != tr.Value {
						t.Fatalf("query %d tree %d at seq %d: reported %d, oracle replay says %d",
							qi, tr.Tree, tr.Seq, tr.Value, got)
					}
					sum += tr.Value
				}
				if sum != res.Combined {
					t.Fatalf("query %d: combined %d != detail sum %d", qi, res.Combined, sum)
				}
			}
			// The quiesced query's sequences match the engines' final state.
			for i, tr := range final.Detail {
				if tr.Seq != engines[i].AppliedSeq() {
					t.Fatalf("final query tree %d: seq %d, engine at %d", tr.Tree, tr.Seq, engines[i].AppliedSeq())
				}
			}
		})
	}
}
