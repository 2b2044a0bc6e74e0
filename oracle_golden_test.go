package dyntc

// The golden oracle: a deterministic request program is executed through
// an engine and every observable is pinned to constants — per-request
// answers and sequence stamps, grow-assigned node IDs, the final root,
// the machine's metered PRAM cost, the applied-wave sequence, and an
// FNV-1a of the wave change-log bytes. The constants were recorded when
// PRAM steps could still run on a work-stealing pool, where the same
// program gave the same values on one worker and on four; a change that
// moves any of them changes results or metering.
//
// Determinism is forced with a barrier gate: an engine barrier parks
// the executor, the round's requests are enqueued while it is parked, and
// releasing the gate makes the executor collect exactly that round as one
// flush — so wave partitioning (and therefore the wave log) is a pure
// function of the program, not of submission timing. Rounds mix grow,
// collapse, set-leaf, set-op, value and root requests, including
// same-node pairs that force multi-wave flushes.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"dyntc/internal/engine"
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

// runOracle executes the deterministic program.
func runOracle(t *testing.T, seed uint64) oracleObs {
	t.Helper()
	ring := ModRing(1_000_000_007)
	e := NewExpr(ring, 1, WithSeed(seed))

	// Deterministic fan-out into disjoint per-client regions, pre-serve.
	const clients = 24
	bases := []*Node{e.Tree().Root}
	for len(bases) < clients {
		l, r := e.Grow(bases[0], OpAdd(ring), 1, 1)
		bases = append(bases[1:], l, r)
	}

	var waves []Wave
	en := e.Serve(BatchOptions{WaveTap: func(w Wave) { waves = append(waves, w) }})

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
		bf := en.inner.Barrier(func(engine.Host) { close(entered); <-gate })
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
					en.GrowIDAsync(target.ID, op, int64(rng.Intn(1000)), int64(rng.Intn(1000)))})
			case c < 45 && len(stack) > 0:
				fr := stack[len(stack)-1]
				stacks[i] = stack[:len(stack)-1]
				futs = append(futs, pending{"collapse", i, en.CollapseIDAsync(fr.parent.ID, int64(rng.Intn(1000)))})
			case c < 60:
				// Same-node set→value pair: conflicts force a second wave,
				// so multi-wave flush partitioning is exercised too.
				leaf := target
				futs = append(futs, pending{"set", i, en.SetLeafIDAsync(leaf.ID, int64(rng.Intn(1000)))})
				futs = append(futs, pending{"value", i, en.ValueIDAsync(leaf.ID)})
			case c < 75:
				leaf := target
				if k := len(stack); k > 0 {
					if j := rng.Intn(k + 1); j < k {
						leaf = stack[j].left
					}
				}
				futs = append(futs, pending{"set", i, en.SetLeafIDAsync(leaf.ID, int64(rng.Intn(1000)))})
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
				futs = append(futs, pending{"value", i, en.ValueIDAsync(n.ID)})
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

// oracleGolden is what runOracle observes for one seed. Answers and grow
// lines are pinned by count and FNV-1a, the wave log by length and FNV-1a.
type oracleGolden struct {
	answers    int
	answerHash uint64 // over the answer lines joined by "\n"
	grows      int
	growHash   uint64 // over the "grow client left right" lines, each + "\n"
	root       int64
	metrics    Metrics
	applied    uint64
	waveBytes  int
	waveHash   uint64
}

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func (o oracleObs) golden() oracleGolden {
	g := oracleGolden{
		answers:    len(o.answers),
		answerHash: fnv64a([]byte(strings.Join(o.answers, "\n"))),
		root:       o.root,
		metrics:    o.metrics,
		applied:    o.applied,
		waveBytes:  len(o.waves),
		waveHash:   fnv64a(o.waves),
	}
	var grows strings.Builder
	for _, a := range o.answers {
		if strings.HasPrefix(a, "grow ") {
			grows.WriteString(a + "\n")
			g.grows++
		}
	}
	g.growHash = fnv64a([]byte(grows.String()))
	return g
}

// TestOracleGolden pins the oracle program's observables, per seed, to the
// values recorded before the scheduler was removed: answers, grow IDs,
// root, Steps/Work/MaxProcs, applied seq and wave-log bytes.
func TestOracleGolden(t *testing.T) {
	want := map[uint64]oracleGolden{
		3: {answers: 693, answerHash: 0xa2e09fceb4c163be, grows: 180, growHash: 0x6ab586057f9c77a3,
			root: 359186484, metrics: Metrics{Steps: 3195, Work: 19147, MaxProcs: 114},
			applied: 25, waveBytes: 25025, waveHash: 0x7521081669592823},
		17: {answers: 717, answerHash: 0xd05b66c31c9d1cb5, grows: 203, growHash: 0xb4329ac7357b7060,
			root: 478682711, metrics: Metrics{Steps: 3075, Work: 18420, MaxProcs: 178},
			applied: 25, waveBytes: 26629, waveHash: 0xcfca0dd9791c7f22},
		1009: {answers: 713, answerHash: 0x384ba3b31358a1d5, grows: 179, growHash: 0x361ece5ad1793df9,
			root: 626921170, metrics: Metrics{Steps: 3197, Work: 18923, MaxProcs: 126},
			applied: 25, waveBytes: 25514, waveHash: 0x52017e8fa91cb15e},
	}
	for _, seed := range []uint64{3, 17, 1009} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if got := runOracle(t, seed).golden(); got != want[seed] {
				t.Fatalf("oracle observables moved:\n got  %+v\n want %+v", got, want[seed])
			}
		})
	}
}
