package dyntc

// The shared-scheduler metering oracle: the same deterministic request
// program is executed twice — on a sequential machine (the reference) and
// on a 4-worker machine whose steps chunk onto a scheduler pool — and
// every observable must be bit-identical: per-request answers and
// sequence stamps, grow-assigned node IDs, the final root, the machine's
// metered PRAM cost, the applied-wave sequence, and the wave change-log
// bytes.
//
// Determinism is forced with a barrier gate: a QueryAsync barrier parks
// the executor, the round's requests are enqueued while it is parked, and
// releasing the gate makes the executor collect exactly that round as one
// flush — so wave partitioning (and therefore the wave log) is a pure
// function of the program, not of submission timing. Rounds mix grow,
// collapse, set-leaf, set-op, value and root requests, including
// same-node pairs that force multi-wave flushes.
//
// Run with -race: under the pool this drives chunk-claimed steps across
// pool workers beneath the engine's waves and wave tap.

import (
	"encoding/json"
	"fmt"
	"testing"

	"dyntc/internal/prng"
)

type oracleObs struct {
	answers []string // one line per redeemed future, in program order
	root    int64
	metrics Metrics
	applied uint64
	waves   []byte // JSON of the collected wave change-log
}

type oracleFrame struct{ parent, left, right *Node }

// runOracle executes the deterministic program against one configuration.
// A nil pool runs the sequential machine; a pool runs a 4-worker machine
// on it with the grain forced low, so even small steps dispatch.
func runOracle(t *testing.T, seed uint64, pool *SchedPool) oracleObs {
	t.Helper()
	ring := ModRing(1_000_000_007)
	opts := []Option{WithSeed(seed)}
	workers := 0
	if pool != nil {
		workers = 4
		opts = append(opts, WithWorkers(workers), withGrain(8))
	}
	e := NewExpr(ring, 1, opts...)

	// Deterministic fan-out into disjoint per-client regions, pre-serve.
	const clients = 24
	bases := []*Node{e.Tree().Root}
	for len(bases) < clients {
		l, r := e.Grow(bases[0], OpAdd(ring), 1, 1)
		bases = append(bases[1:], l, r)
	}

	var waves []Wave
	en := e.Serve(BatchOptions{
		Workers: workers,
		Pool:    pool,
		WaveTap: func(w Wave) { waves = append(waves, w) },
	})

	obs := oracleObs{}
	stacks := make([][]oracleFrame, clients)
	rngs := make([]*prng.Source, clients)
	for i := range rngs {
		rngs[i] = prng.New(seed + 1000*uint64(i))
	}

	const rounds = 25
	for r := 0; r < rounds; r++ {
		// Park the executor so the whole round coalesces into one flush.
		entered := make(chan struct{})
		gate := make(chan struct{})
		bf := en.QueryAsync(func(*Expr) { close(entered); <-gate })
		<-entered

		type pending struct {
			kind   string
			client int
			f      *Future
		}
		var futs []pending
		for i := 0; i < clients; i++ {
			rng := rngs[i]
			stack := stacks[i]
			target := bases[i]
			if len(stack) > 0 {
				target = stack[len(stack)-1].right
			}
			switch c := rng.Intn(100); {
			case c < 30 && len(stack) < 12:
				op := OpAdd(ring)
				if rng.Intn(2) == 0 {
					op = OpMul(ring)
				}
				futs = append(futs, pending{"grow", i,
					en.GrowAsync(target, op, int64(rng.Intn(1000)), int64(rng.Intn(1000)))})
			case c < 45 && len(stack) > 0:
				fr := stack[len(stack)-1]
				stacks[i] = stack[:len(stack)-1]
				futs = append(futs, pending{"collapse", i, en.CollapseAsync(fr.parent, int64(rng.Intn(1000)))})
			case c < 60:
				// Same-node set→value pair: conflicts force a second wave,
				// so multi-wave flush partitioning is exercised too.
				leaf := target
				futs = append(futs, pending{"set", i, en.SetLeafAsync(leaf, int64(rng.Intn(1000)))})
				futs = append(futs, pending{"value", i, en.ValueAsync(leaf)})
			case c < 75:
				leaf := target
				if k := len(stack); k > 0 {
					if j := rng.Intn(k + 1); j < k {
						leaf = stack[j].left
					}
				}
				futs = append(futs, pending{"set", i, en.SetLeafAsync(leaf, int64(rng.Intn(1000)))})
			case c < 90:
				n := target
				if k := len(stack); k > 0 {
					fr := stack[rng.Intn(k)]
					switch rng.Intn(3) {
					case 0:
						n = fr.parent
					case 1:
						n = fr.left
					default:
						n = fr.right
					}
				}
				futs = append(futs, pending{"value", i, en.ValueAsync(n)})
			default:
				futs = append(futs, pending{"root", i, en.RootAsync()})
			}
		}
		close(gate)
		if err := bf.Wait(); err != nil {
			t.Fatalf("round %d: gate barrier: %v", r, err)
		}
		bf.Recycle()

		for _, p := range futs {
			switch p.kind {
			case "grow":
				l, rt, err := p.f.Pair()
				if err != nil {
					t.Fatalf("round %d client %d grow: %v", r, p.client, err)
				}
				stacks[p.client] = append(stacks[p.client], oracleFrame{parent: nil, left: l, right: rt})
				obs.answers = append(obs.answers, fmt.Sprintf("grow %d %d %d", p.client, l.ID, rt.ID))
				// Record the parent for collapse: it is the node that was grown.
				stacks[p.client][len(stacks[p.client])-1].parent = l.Parent
			case "value", "root":
				v, seq, err := p.f.ValueSeq()
				if err != nil {
					t.Fatalf("round %d client %d %s: %v", r, p.client, p.kind, err)
				}
				obs.answers = append(obs.answers, fmt.Sprintf("%s %d %d @%d", p.kind, p.client, v, seq))
			default:
				if err := p.f.Wait(); err != nil {
					t.Fatalf("round %d client %d %s: %v", r, p.client, p.kind, err)
				}
				obs.answers = append(obs.answers, fmt.Sprintf("%s %d", p.kind, p.client))
			}
			p.f.Recycle()
		}
	}

	obs.applied = en.AppliedSeq()
	en.Close()
	obs.root = e.Root()
	obs.metrics = e.PRAM()
	data, err := json.Marshal(waves)
	if err != nil {
		t.Fatalf("marshal waves: %v", err)
	}
	obs.waves = data

	// Sanity: the program genuinely produced mixed grow∥set∥value waves.
	mixed := false
	for _, w := range waves {
		kinds := map[uint8]bool{}
		for _, op := range w.Ops {
			kinds[uint8(op.Kind)] = true
		}
		if len(kinds) >= 2 {
			mixed = true
			break
		}
	}
	if !mixed {
		t.Fatal("oracle program produced no mixed-kind wave; the test lost its teeth")
	}
	return obs
}

func assertOracleEqual(t *testing.T, label string, want, got oracleObs) {
	t.Helper()
	if got.root != want.root {
		t.Fatalf("%s: root %d != reference %d", label, got.root, want.root)
	}
	if got.metrics != want.metrics {
		t.Fatalf("%s: PRAM metrics %+v != reference %+v (metering must be bit-identical)", label, got.metrics, want.metrics)
	}
	if got.applied != want.applied {
		t.Fatalf("%s: applied seq %d != reference %d", label, got.applied, want.applied)
	}
	if len(got.answers) != len(want.answers) {
		t.Fatalf("%s: %d answers != reference %d", label, len(got.answers), len(want.answers))
	}
	for i := range got.answers {
		if got.answers[i] != want.answers[i] {
			t.Fatalf("%s: answer %d = %q, reference %q", label, i, got.answers[i], want.answers[i])
		}
	}
	if string(got.waves) != string(want.waves) {
		t.Fatalf("%s: wave change-log bytes differ from reference (len %d vs %d)", label, len(got.waves), len(want.waves))
	}
}

// TestSharedPoolOracleBitIdentical is the acceptance oracle: pool-stepped
// execution produces identical roots, metrics, answers and wave-log bytes
// to the sequential machine, across seeds, including mixed grow∥set∥value
// waves.
func TestSharedPoolOracleBitIdentical(t *testing.T) {
	for _, seed := range []uint64{3, 17, 1009} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ref := runOracle(t, seed, nil)

			pool := NewSchedPool(4)
			got := runOracle(t, seed, pool)
			pool.Close()
			assertOracleEqual(t, "shared-pool", ref, got)
			if pool.Stats().Loops == 0 {
				t.Fatal("no PRAM step reached the pool; the oracle lost its teeth")
			}
		})
	}
}
