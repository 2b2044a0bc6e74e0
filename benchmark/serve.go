package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"dyntc"
	"dyntc/internal/prng"
	"dyntc/internal/tree"
)

// serve-wal: a real dyntcd process with -wal-dir, eight 16 384-leaf trees
// uploaded as snapshots, and an open loop of two connections that each
// own four trees. A request is one POST /v1/trees/{id}/batch of eight ops
// (or, one time in sixteen, a POST /v1/query over all trees).

const (
	serveTrees  = 8
	serveLeaves = 16384
	serveWarmup = 128 // requests each connection issues before timing starts

	// latencyLimitUS is the p99 a rate must stay under to count as served.
	latencyLimitUS = 10000
)

// serveRates is the fixed rate grid r1<r2<r3<r4, in requests per second.
// Calibration rules (see README): r4 fails by backlog growth, r3 is the
// highest rate the server keeps up with, r2 is a quarter of capacity.
// Latencies from the due time are reported at r2; r4 saturates the two
// connections, so its completion rate is the service's capacity for this
// mix and its issue-to-completion times the latency under full load.
var serveRates = [4]float64{200, 400, 1200, 2400}

// servePhase is one fixed-rate phase of a run: which step of the grid,
// and its share of --seconds.
type servePhase struct {
	rate  int // index into serveRates
	share float64
}

// servePlan is the phases before the SIGKILL and the phases on the
// recovered server.
type servePlan struct{ before, after []servePhase }

// The end-to-end run spends a quarter of its time at r2 — a fixed rate for
// a fixed time, so every run kills a server with the same number of waves
// in its WAL, and the tails from the due time are printed — and the rest at
// r4 on the recovered server, where its timed metrics are read. The traced
// run walks the whole grid.
var (
	e2ePlan  = servePlan{before: []servePhase{{1, 0.25}}, after: []servePhase{{3, 0.75}}}
	gridPlan = servePlan{before: []servePhase{{0, 0.10}, {1, 0.35}, {2, 0.15}}, after: []servePhase{{3, 0.40}}}
)

func (ph servePhase) dur(cfg config) time.Duration {
	if cfg.quick {
		return 250 * time.Millisecond
	}
	return time.Duration(cfg.seconds * ph.share * float64(time.Second))
}

// dyntcdServer is one dyntcd child process.
type dyntcdServer struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	walDir string
	log    *os.File
}

// buildDyntcd compiles the server from the checkout's source into outDir.
func buildDyntcd(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "dyntcd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "dyntc/cmd/dyntcd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build dyntcd: %v\n%s", err, out)
	}
	return bin, nil
}

// startDyntcd launches dyntcd with its defaults — only -addr and -wal-dir
// are passed — and waits until it answers /healthz.
func startDyntcd(bin, walDir string) (*dyntcdServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(filepath.Dir(walDir), filepath.Base(walDir)+".log"))
	if err != nil {
		return nil, err
	}
	s := &dyntcdServer{base: "http://" + addr, walDir: walDir, log: logf}
	s.cmd = exec.Command(bin, "-addr", addr, "-wal-dir", walDir)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// Should the benchmark itself be killed, the server must not outlive it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return nil, fmt.Errorf("dyntcd did not come up on %s (see %s)", addr, logf.Name())
}

// kill sends SIGKILL and reaps the child.
func (s *dyntcdServer) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	_ = s.cmd.Wait() // the exit status of a killed child is not an error here
	s.log.Close()
}

func (s *dyntcdServer) pid() int { return s.cmd.Process.Pid }

// conn is one HTTP connection: a client whose transport holds a single
// keep-alive socket.
type conn struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	return &conn{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   10 * time.Second,
	}}
}

func (c *conn) do(method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(c.buf.Bytes()))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(c.buf.Bytes(), out)
}

// encodeBatch appends the JSON body of a batch request.
func encodeBatch(b []byte, r *request) []byte {
	b = append(b, `{"ops":[`...)
	for i := range r.ops {
		o := &r.ops[i]
		if i > 0 {
			b = append(b, ',')
		}
		opName := "add"
		if o.mul {
			opName = "mul"
		}
		switch o.kind {
		case opSetLeaf:
			b = append(b, `{"kind":"set-leaf","node":`...)
			b = strconv.AppendInt(b, int64(o.node), 10)
			b = append(b, `,"value":`...)
			b = strconv.AppendInt(b, o.a, 10)
		case opGrow:
			b = append(b, `{"kind":"grow","node":`...)
			b = strconv.AppendInt(b, int64(o.node), 10)
			b = append(b, `,"op":"`...)
			b = append(b, opName...)
			b = append(b, `","left":`...)
			b = strconv.AppendInt(b, o.a, 10)
			b = append(b, `,"right":`...)
			b = strconv.AppendInt(b, o.b, 10)
		case opCollapse:
			b = append(b, `{"kind":"collapse","node":`...)
			b = strconv.AppendInt(b, int64(o.node), 10)
			b = append(b, `,"value":`...)
			b = strconv.AppendInt(b, o.a, 10)
		case opValue:
			b = append(b, `{"kind":"value","node":`...)
			b = strconv.AppendInt(b, int64(o.node), 10)
		}
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

type batchResp struct {
	Results []struct {
		Error string `json:"error"`
		Left  *int   `json:"left"`
		Right *int   `json:"right"`
		Value *int64 `json:"value"`
	} `json:"results"`
}

type queryResp struct {
	Combined int64 `json:"combined"`
	Trees    int   `json:"trees"`
	Errors   int   `json:"errors"`
	Detail   []struct {
		Tree  uint64 `json:"tree"`
		Value *int64 `json:"value"`
	} `json:"detail"`
}

// serveClient is one connection's state: its socket, its generator, and
// what it has seen so far.
type serveClient struct {
	c     *conn
	gen   *serveGen
	slots []int // per tree index: the IDs the next grow must assign
	body  []byte
	// reads holds the value each batch request returned, by request number
	// (queries hold 0): the oracle checks a sample of them afterwards.
	reads []int64
}

// httpBackend sends requests to a dyntcd over the clients' connections.
type httpBackend struct {
	base    string
	clients []*serveClient
}

// send issues one generated request on connection ci and checks what can
// be checked without the oracle: status, per-op errors, the IDs a grow
// assigned.
func (h *httpBackend) send(ci int, r *request) error {
	cl := h.clients[ci]
	if r.tree < 0 {
		var q queryResp
		if err := cl.c.do("POST", h.base+"/v1/query", []byte(`{"read":"root","combine":"sum"}`), &q); err != nil {
			return err
		}
		if q.Errors != 0 || q.Trees != serveTrees {
			return fmt.Errorf("query answered by %d trees with %d errors", q.Trees, q.Errors)
		}
		cl.reads = append(cl.reads, 0)
		return nil
	}
	cl.body = encodeBatch(cl.body[:0], r)
	var resp batchResp
	url := h.base + "/v1/trees/" + strconv.Itoa(r.tree+1) + "/batch"
	if err := cl.c.do("POST", url, cl.body, &resp); err != nil {
		return err
	}
	if len(resp.Results) != len(r.ops) {
		return fmt.Errorf("batch of %d ops got %d results", len(r.ops), len(resp.Results))
	}
	var read int64
	for i := range r.ops {
		res := &resp.Results[i]
		if res.Error != "" {
			return fmt.Errorf("op %d (%d on node %d): %s", i, r.ops[i].kind, r.ops[i].node, res.Error)
		}
		switch r.ops[i].kind {
		case opGrow:
			want := cl.slots[r.tree]
			cl.slots[r.tree] += 2
			if res.Left == nil || res.Right == nil || *res.Left != want || *res.Right != want+1 {
				return fmt.Errorf("grow on tree %d did not assign IDs %d,%d", r.tree+1, want, want+1)
			}
		case opValue:
			if res.Value == nil {
				return fmt.Errorf("value op %d returned no value", i)
			}
			read = *res.Value
		}
	}
	cl.reads = append(cl.reads, read)
	return nil
}

// apply makes httpBackend a ladder rung: requests alternate between the
// connections exactly as the merged program was built.
func (h *httpBackend) apply(r *request) []int64 {
	ci := 0
	if r.tree >= 0 {
		ci = r.tree % len(h.clients)
	}
	if err := h.send(ci, r); err != nil {
		panic(fmt.Sprintf("dyntcd rung: %v", err))
	}
	return nil
}

// owned returns the tree indices connection ci owns.
func owned(ci, conns int) []int {
	var out []int
	for t := ci; t < serveTrees; t += conns {
		out = append(out, t)
	}
	return out
}

type serveSizes struct{ leaves, warm int }

func serveSize(cfg config) serveSizes {
	if cfg.quick {
		return serveSizes{1024, 16}
	}
	return serveSizes{serveLeaves, serveWarmup}
}

func serveSnapshots(cfg config) ([]*tree.Tree, [][]byte, error) {
	sz := serveSize(cfg)
	var trees []*tree.Tree
	var snaps [][]byte
	for i := 0; i < serveTrees; i++ {
		t := genTree(dataSeed+uint64(i), sz.leaves, tree.ShapeRandom)
		snap, err := snapshotOf(t)
		if err != nil {
			return nil, nil, err
		}
		trees, snaps = append(trees, t), append(snaps, snap)
	}
	return trees, snaps, nil
}

func newServeClients(cfg config, trees []*tree.Tree) []*serveClient {
	conns := min(cfg.nproc, serveTrees)
	clients := make([]*serveClient, conns)
	for ci := range clients {
		cl := &serveClient{c: newConn(), gen: newServeGen(cfg.seed, ci, owned(ci, conns), trees), slots: make([]int, len(trees))}
		for i, t := range trees {
			cl.slots[i] = len(t.Nodes)
		}
		clients[ci] = cl
	}
	return clients
}

// serveSystem is a running server with its trees uploaded and warmed.
type serveSystem struct {
	bin    string
	srv    *dyntcdServer
	snaps  [][]byte
	h      *httpBackend
	oracle *serveOracle
}

var walSeq int

// serveSetup is what setup_s times on serve-wal: generate and encode the
// trees, start dyntcd, upload every snapshot, run the warm-up requests.
func serveSetup(cfg config, bin string) (*serveSystem, error) {
	trees, snaps, err := serveSnapshots(cfg)
	if err != nil {
		return nil, err
	}
	walSeq++
	walDir, err := filepath.Abs(filepath.Join(cfg.outDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), walSeq)))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	srv, err := startDyntcd(bin, walDir)
	if err != nil {
		return nil, err
	}
	s := &serveSystem{bin: bin, srv: srv, snaps: snaps}
	s.h = &httpBackend{base: srv.base, clients: newServeClients(cfg, trees)}
	for i, snap := range snaps {
		url := fmt.Sprintf("%s/v1/trees/%d/snapshot", srv.base, i+1)
		if err := s.h.clients[0].c.do("PUT", url, snap, nil); err != nil {
			s.discard()
			return nil, fmt.Errorf("upload tree %d: %w", i+1, err)
		}
	}
	for i := 0; i < serveSize(cfg).warm; i++ {
		for ci, cl := range s.h.clients {
			r := cl.gen.next()
			if err := s.h.send(ci, &r); err != nil {
				s.discard()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return s, nil
}

// discard kills the server and removes what it wrote.
func (s *serveSystem) discard() {
	s.srv.kill()
	os.RemoveAll(s.srv.walDir)
	os.Remove(s.srv.log.Name())
}

// serveOracle replays each connection's stream on naive trees, as far as
// the connection has got.
type serveOracle struct {
	cfg     config
	be      *treeBackend
	gens    []*serveGen
	applied []int
	initial []int // per tree: node slots of the uploaded tree
}

func newServeOracle(cfg config, snaps [][]byte, conns int) (*serveOracle, error) {
	o := &serveOracle{cfg: cfg, be: &treeBackend{}, applied: make([]int, conns)}
	for _, s := range snaps {
		t, err := treeFrom(s)
		if err != nil {
			return nil, err
		}
		o.be.trees = append(o.be.trees, t)
		o.initial = append(o.initial, len(t.Nodes))
	}
	for ci := 0; ci < conns; ci++ {
		o.gens = append(o.gens, newServeGen(cfg.seed, ci, owned(ci, conns), o.be.trees))
	}
	return o, nil
}

// serveReadStride is how many batch reads go unchecked per checked one
// (a naive evaluation walks the node's whole subtree).
const serveReadStride = 16

// advance brings the oracle level with the clients, checking a sample of
// the values the server returned along the way.
func (o *serveOracle) advance(clients []*serveClient) error {
	for ci, cl := range clients {
		for ; o.applied[ci] < len(cl.reads); o.applied[ci]++ {
			r := o.gens[ci].next()
			o.be.apply(&r)
			if r.tree < 0 || o.applied[ci]%serveReadStride != 0 {
				continue
			}
			t := o.be.trees[r.tree]
			node := r.ops[len(r.ops)-1].node
			if want := t.EvalAt(t.Nodes[node]); cl.reads[o.applied[ci]] != want {
				return fmt.Errorf("connection %d request %d: value at tree %d node %d is %d, naive evaluation says %d",
					ci, o.applied[ci], r.tree+1, node, cl.reads[o.applied[ci]], want)
			}
		}
	}
	return nil
}

// check compares the quiesced server with the oracle: every tree's root,
// the cross-tree sum, and sampled internal values of every tree.
func (o *serveOracle) check(base string, c *conn) error {
	var q queryResp
	if err := c.do("POST", base+"/v1/query", []byte(`{"read":"root","combine":"sum","detail":true}`), &q); err != nil {
		return err
	}
	if q.Trees != len(o.be.trees) || q.Errors != 0 || len(q.Detail) != len(o.be.trees) {
		return fmt.Errorf("query answered by %d trees with %d errors, want %d trees", q.Trees, q.Errors, len(o.be.trees))
	}
	var sum int64
	for _, d := range q.Detail {
		want := o.be.trees[d.Tree-1].Eval()
		sum += want
		if d.Value == nil || *d.Value != want {
			return fmt.Errorf("tree %d: root differs from the naive evaluation %d", d.Tree, want)
		}
	}
	if q.Combined != sum {
		return fmt.Errorf("query sum is %d, naive evaluation says %d", q.Combined, sum)
	}
	src := prng.New(o.cfg.seed)
	for i, t := range o.be.trees {
		for _, id := range sampleInternals(t, src, 4, len(t.Nodes)) {
			var v struct {
				Value int64 `json:"value"`
			}
			if err := c.do("GET", fmt.Sprintf("%s/v1/trees/%d/value?node=%d", base, i+1, id), nil, &v); err != nil {
				return err
			}
			if want := t.EvalAt(t.Nodes[id]); v.Value != want {
				return fmt.Errorf("tree %d node %d: value is %d, naive evaluation says %d", i+1, id, v.Value, want)
			}
		}
	}
	return nil
}

// serverStats is GET /v1/stats, as far as the benchmark reads it.
type serverStats struct {
	UptimeS float64           `json:"uptime_s"`
	Engine  dyntc.EngineStats `json:"engine"`
	Sched   dyntc.SchedStats  `json:"sched"`
}

func fetchStats(base string, c *conn) (serverStats, error) {
	var st serverStats
	err := c.do("GET", base+"/v1/stats", nil, &st)
	return st, err
}

// serveRun is everything one serve-wal run measures.
type serveRun struct {
	setups    []float64
	phases    [4]phaseStats // by grid step; a step the plan skips stays empty
	durs      [4]time.Duration
	cpu       time.Duration // dyntcd's CPU over the four phases
	rssMB     float64       // the larger VmHWM of the two dyntcd processes
	recoverS  float64
	walWaves  uint64 // waves logged before the kill
	stats     [2]serverStats
	statsOK   bool
	attempted int
	failed    int
	verr      error
}

// runServe drives the whole workload: set-up (reps times), the plan's
// phases before the kill, a check, SIGKILL and recovery, the plan's phases
// on the recovered server, and a last check.
func runServe(cfg config, reps int, plan servePlan) (*serveRun, error) {
	bin, err := buildDyntcd(cfg.outDir)
	if err != nil {
		return nil, err
	}
	run := &serveRun{}
	var sys *serveSystem
	for i := 0; i < reps; i++ {
		if sys != nil {
			sys.discard()
		}
		runtime.GC()
		t0 := time.Now()
		if sys, err = serveSetup(cfg, bin); err != nil {
			return nil, err
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())
	}
	defer func() { sys.discard() }()
	clients := sys.h.clients
	oracle, err := newServeOracle(cfg, sys.snaps, len(clients))
	if err != nil {
		return nil, err
	}
	admin := newConn()

	phase := func(ph servePhase) error {
		i := ph.rate
		cpu0, err := procCPU(sys.srv.pid())
		if err != nil {
			return err
		}
		send := func(ci int) error {
			r := clients[ci].gen.next()
			return sys.h.send(ci, &r)
		}
		run.durs[i] = ph.dur(cfg)
		run.phases[i] = openLoop(serveRates[i], run.durs[i], len(clients), send)
		cpu1, err := procCPU(sys.srv.pid())
		if err != nil {
			return err
		}
		run.cpu += cpu1 - cpu0
		run.attempted += run.phases[i].Sent
		run.failed += run.phases[i].Failed
		return nil
	}
	verify := func(stage string) {
		if run.verr != nil {
			return
		}
		if err := oracle.advance(clients); err != nil {
			run.verr = fmt.Errorf("%s: %w", stage, err)
		} else if err := oracle.check(sys.srv.base, admin); err != nil {
			run.verr = fmt.Errorf("%s: %w", stage, err)
		}
	}

	if run.stats[0], err = fetchStats(sys.srv.base, admin); err != nil {
		return nil, err
	}
	for _, ph := range plan.before {
		if err := phase(ph); err != nil {
			return nil, err
		}
	}
	if run.stats[1], err = fetchStats(sys.srv.base, admin); err != nil {
		return nil, err
	}
	verify("before the kill")
	run.walWaves = run.stats[1].Engine.AppliedSeq
	if run.rssMB, err = peakRSSMB(strconv.Itoa(sys.srv.pid())); err != nil {
		return nil, err
	}

	// Crash and recover: every acknowledged op must be there afterwards.
	t0 := time.Now()
	sys.srv.kill()
	srv, err := startDyntcd(bin, sys.srv.walDir)
	if err != nil {
		return nil, fmt.Errorf("restart on the same -wal-dir: %w", err)
	}
	sys.srv, sys.h.base = srv, srv.base
	if err := oracle.check(srv.base, admin); err != nil && run.verr == nil {
		run.verr = fmt.Errorf("after SIGKILL and restart: %w", err)
	}
	run.recoverS = time.Since(t0).Seconds()

	for _, ph := range plan.after {
		if err := phase(ph); err != nil {
			return nil, err
		}
	}
	verify("at the end")
	rss, err := peakRSSMB(strconv.Itoa(srv.pid()))
	if err != nil {
		return nil, err
	}
	run.rssMB = max(run.rssMB, rss)
	if run.verr != nil {
		run.failed++
	}
	return run, nil
}

// phaseRate is the median over the phase's windows of requests completed
// per second.
func phaseRate(p *phaseStats, dur time.Duration) float64 {
	window := dur / measureWindows
	counts := make([]int, measureWindows+1)
	for _, d := range p.DoneNS {
		counts[min(int(time.Duration(d)/window), measureWindows)]++
	}
	return windowRate(counts[:measureWindows], window, float64(p.Sent)/p.Wall.Seconds())
}

// opsPerRequest is the mean tree operations per request of the mix: 15 of
// 16 requests are 8-op batches, one is a query reading every tree's root.
const opsPerRequest = (15.0*(serveSets+3) + serveTrees) / 16

func serveMeasure(cfg config) (*result, error) {
	run, err := runServe(cfg, setupReps, e2ePlan)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.attempted, res.failed, res.verr = run.attempted, run.failed, run.verr
	r2 := sortedCopy(run.phases[1].LatNS)
	p99, used := tailPercentile(r2, 0.99)
	sent := run.phases[1].Sent + run.phases[3].Sent
	// The median is taken of issue-to-completion times at r4, where the
	// two connections run back to back: the closed-loop latency under full
	// load, as on the in-process workloads. The median from the due time at
	// r2 is the same figure while the server keeps up and the length of the
	// queue behind a stall when it does not — on this host a stolen core or
	// a 50 ms re-simulation every tenth of a second delays more than half
	// of a phase's requests, and it reads 1 ms in one run and 75 ms in the
	// next — and even issue-to-completion at r2 follows how long the host
	// takes to wake an idle core. The tails stay measured from the due time.
	service := sortedCopy(run.phases[3].serviceNS())
	res.set("setup_s", medianFloat(run.setups))
	res.set("ops_per_s", phaseRate(&run.phases[3], run.durs[3])*opsPerRequest)
	res.set("req_p50_us", float64(percentile(service, 0.5))/1e3)
	res.set("cpu_ms_per_kop", run.cpu.Seconds()*1e3/(float64(sent)*opsPerRequest/1e3))
	res.set("peak_rss_mb", run.rssMB)
	run.describe(res)
	res.note("tails at r2, from the due time: p90 %.0f us, p99 %.0f us (p%.2f of %d samples); recovery replayed %d waves in %.3f s",
		float64(percentile(r2, 0.9))/1e3, float64(p99)/1e3, used*100, len(r2), run.walWaves, run.recoverS)
	return res, nil
}

func (run *serveRun) describe(res *result) {
	for i := range run.phases {
		p := &run.phases[i]
		if p.Sent == 0 {
			continue
		}
		s := sortedCopy(p.LatNS)
		p99, _ := tailPercentile(s, 0.99)
		res.note("r%d %5.0f req/s: sent %d of %d, failed %d, p50 %.0f p90 %.0f p99 %.0f max %.0f us (service p50 %.0f us), backlog max %d end %d, ok=%v",
			i+1, p.Rate, p.Sent, p.Scheduled, p.Failed, float64(percentile(s, 0.5))/1e3, float64(percentile(s, 0.9))/1e3,
			float64(p99)/1e3, float64(s[len(s)-1])/1e3, float64(percentile(sortedCopy(p.serviceNS()), 0.5))/1e3,
			p.BacklogMax, p.BacklogEnd, phaseOK(p))
	}
}

// phaseOK is the grid's pass rule: p99 within the limit, nothing failed,
// no backlog still growing at the end.
func phaseOK(p *phaseStats) bool {
	if p.Sent == 0 || p.Failed > 0 || p.growing() {
		return false
	}
	p99, _ := tailPercentile(sortedCopy(p.LatNS), 0.99)
	return float64(p99)/1e3 <= latencyLimitUS
}

// reportGrid sets the per-rate and load-generator metrics of a run.
func (run *serveRun) reportGrid(res *result) {
	var late []int64
	backlog := 0
	for i := range run.phases {
		p := &run.phases[i]
		p99, _ := tailPercentile(sortedCopy(p.LatNS), 0.99)
		res.set(fmt.Sprintf("dyntcd.rate_p99_us.r%d", i+1), float64(p99)/1e3)
		if i == 1 {
			reportTails(res, p.LatNS)
		}
		// The generator's own health is judged where the server keeps up.
		if i < 3 {
			late = append(late, p.LateNS...)
			backlog = max(backlog, p.BacklogMax)
		}
	}
	// max_rate_ok climbs the grid only while every lower step passed.
	maxOK := 0.0
	for i := range run.phases {
		if !phaseOK(&run.phases[i]) {
			break
		}
		maxOK = run.phases[i].Rate
	}
	res.set("dyntcd.max_rate_ok", maxOK)
	res.set("replog.recover_s", run.recoverS)
	res.set("loadgen.fail_ratio", float64(run.failed)/float64(max(run.attempted, 1)))
	lp99, _ := tailPercentile(sortedCopy(late), 0.99)
	res.set("loadgen.late_p99_us", float64(lp99)/1e3)
	res.set("loadgen.backlog_max", float64(backlog))
}

// serveTraceRequests is the traced program's length per connection.
const serveTraceRequests = 1500

func serveTraced(cfg config) (*result, error) {
	res := newResult()
	sz := serveSize(cfg)
	perConn := serveTraceRequests
	if cfg.quick {
		perConn = 32
	}
	trees, snaps, err := serveSnapshots(cfg)
	if err != nil {
		return nil, err
	}
	// The two connections' streams merged alternately into one closed-loop
	// program, replayed by a single caller on every rung.
	gens := newServeClients(cfg, trees)
	merged := func(n int) []request {
		out := make([]request, 0, n*len(gens))
		for i := 0; i < n; i++ {
			for _, cl := range gens {
				out = append(out, cl.gen.next())
			}
		}
		return out
	}
	warm, prog := merged(sz.warm), merged(perConn)
	_, ops := programOf(prog)
	_, warmOps := programOf(warm)

	tr := newTracer("serve-wal")
	l, err := replayRungs([]string{"tree", "rbsts", "core", "pram"}, snaps, cfg, warm, prog, tr)
	if err != nil {
		return nil, err
	}
	runs := l.runs
	l.ctr.report(res, ops)

	// engine and replog rungs: a forest configured the way dyntcd
	// configures its own, without and with a WAL tapped into every engine.
	walDir, err := filepath.Abs(filepath.Join(cfg.outDir, fmt.Sprintf("wal-%d-ladder", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	for _, name := range []string{"engine", "replog"} {
		runtime.GC()
		f, err := newForestRung(cfg, snaps, name == "replog", walDir)
		if err != nil {
			return nil, err
		}
		for i := range warm {
			f.be.apply(&warm[i])
		}
		runs = append(runs, replay(name, f.be, prog, tr))
		if name == "engine" {
			f.timeQueries(res)
		}
		if err := f.close(); err != nil {
			return nil, err
		}
		if f.be.failed > 0 {
			return nil, fmt.Errorf("%s rung: %d ops failed", name, f.be.failed)
		}
		if name == "replog" {
			if err := f.reportLog(res, ops+warmOps); err != nil {
				return nil, err
			}
		}
	}
	if err := reportSnapshotCodec(res, snaps[0]); err != nil {
		return nil, err
	}

	// dyntcd rung: the same program over HTTP, one request at a time.
	bin, err := buildDyntcd(cfg.outDir)
	if err != nil {
		return nil, err
	}
	httpRung := func(tr *tracer) (rungRun, error) {
		sys, err := serveSetup(cfg, bin)
		if err != nil {
			return rungRun{}, err
		}
		defer sys.discard()
		// serveSetup ran the same warm-up through its own generators.
		return replay("dyntcd", sys.h, prog, tr), nil
	}
	top, err := httpRung(tr)
	if err != nil {
		return nil, err
	}
	runs = append(runs, top)
	ladderMetrics(res, runs)
	res.set("dyntcd.http_us_per_req", (top.usPerOp-runs[len(runs)-2].usPerOp)*float64(ops)/float64(len(prog)))
	bare, err := httpRung(nil)
	if err != nil {
		return nil, err
	}
	res.set("bench.trace_overhead_ratio", top.usPerOp/bare.usPerOp-1)

	// The rate grid, for the per-rate and server-side counters.
	run, err := runServe(cfg, 1, gridPlan)
	if err != nil {
		return nil, err
	}
	run.reportGrid(res)
	run.describe(res)
	reportEngine(res, run.stats[0].Engine, run.stats[1].Engine)
	s0, s1 := run.stats[0], run.stats[1]
	reportSched(res, int64(s1.Engine.Waves-s0.Engine.Waves),
		schedReading{s0.Sched, s0.UptimeS}, schedReading{s1.Sched, s1.UptimeS})

	res.attempted, res.failed, res.verr = len(prog)+run.attempted, run.failed, run.verr
	return res, finishTraced(cfg, res, tr, prog, l.ctr)
}

// forestRung is the in-process engine / replog rung.
type forestRung struct {
	forest *dyntc.Forest
	pool   *dyntc.SchedPool
	be     *engineBackend
	logs   []*dyntc.WaveLog
	paths  []string
	snaps  [][]byte
}

func newForestRung(cfg config, snaps [][]byte, logged bool, walDir string) (*forestRung, error) {
	// dyntcd's defaults: one scheduler pool for the process, every tree
	// allowed to recruit GOMAXPROCS of its workers, shedding on.
	pool := dyntc.NewSchedPool(0)
	f := &forestRung{pool: pool, snaps: snaps,
		forest: dyntc.NewForest(dyntc.BatchOptions{Workers: cfg.nproc, Pool: pool, Shed: true})}
	f.be = &engineBackend{forest: f.forest}
	if logged {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return nil, err
		}
	}
	for i, snap := range snaps {
		en, _, err := f.forest.Restore(dyntc.TreeID(i+1), snap)
		if err != nil {
			return nil, fmt.Errorf("restore tree %d: %w", i+1, err)
		}
		f.be.engines = append(f.be.engines, en)
		if !logged {
			continue
		}
		path := filepath.Join(walDir, fmt.Sprintf("tree-%d.wal", i+1))
		os.Remove(path)
		wl, err := dyntc.NewWaveLog(0, path)
		if err != nil {
			return nil, err
		}
		en.SetWaveTap(func(w dyntc.Wave) {
			if err := wl.Append(w); err != nil {
				panic(fmt.Sprintf("replog rung: %v", err))
			}
		})
		f.logs, f.paths = append(f.logs, wl), append(f.paths, path)
	}
	return f, nil
}

func (f *forestRung) close() error {
	f.forest.Close()
	f.pool.Close()
	for _, wl := range f.logs {
		if err := wl.Close(); err != nil {
			return err
		}
	}
	return nil
}

// timeQueries measures Forest.Query in-process: the cross-tree read with
// no HTTP around it.
func (f *forestRung) timeQueries(res *result) {
	const n = 200
	q := request{tree: -1, ops: []op{{kind: opQuery}}}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f.be.apply(&q)
	}
	res.set("query.us_per_query", float64(time.Since(t0))/1e3/n)
}

// reportLog sets the WAL metrics from the files the replog rung wrote:
// bytes per op, and how fast startup recovery reads and replays them.
func (f *forestRung) reportLog(res *result, ops int64) error {
	var bytesTotal int64
	var waves int
	var took time.Duration
	for i, path := range f.paths {
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		bytesTotal += st.Size()
		e, _, err := dyntc.RestoreExpr(f.snaps[i], dyntc.WithWorkers(runtime.GOMAXPROCS(0)))
		if err != nil {
			return err
		}
		t0 := time.Now()
		ws, _, err := dyntc.RecoverWaveLog(path)
		if err != nil {
			return fmt.Errorf("recover %s: %w", path, err)
		}
		for _, w := range ws {
			if err := e.ApplyWave(w); err != nil {
				return fmt.Errorf("replay %s: %w", path, err)
			}
		}
		took += time.Since(t0)
		waves += len(ws)
	}
	res.set("replog.wal_bytes_per_op", float64(bytesTotal)/float64(ops))
	if took > 0 {
		res.set("replog.recover_waves_per_s", float64(waves)/took.Seconds())
	}
	return nil
}

// reportSnapshotCodec times the snapshot codec on one of the trees.
func reportSnapshotCodec(res *result, snap []byte) error {
	e, _, err := dyntc.RestoreExpr(snap)
	if err != nil {
		return err
	}
	var enc, dec []float64
	var size int
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		data, err := e.Snapshot(0)
		if err != nil {
			return err
		}
		enc = append(enc, float64(time.Since(t0))/1e6)
		size = len(data)
		t0 = time.Now()
		if _, _, err := dyntc.RestoreExpr(data); err != nil {
			return err
		}
		dec = append(dec, float64(time.Since(t0))/1e6)
	}
	res.set("replog.snapshot_bytes_per_node", float64(size)/float64(e.Tree().Len()))
	res.set("replog.snapshot_encode_ms", medianFloat(enc))
	res.set("replog.restore_ms", medianFloat(dec))
	return nil
}
