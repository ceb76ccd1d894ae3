// Command perfbench is the repository's serving benchmark. It drives the
// shipped servenode binary, running as its own process, over loopback with
// one of three workloads, checks the answers, and prints the end-to-end
// metrics (-trace 0) or the per-layer split (-trace 1) as the last line of
// standard output, one JSON object. Lines before it, starting with "#", are
// the human-readable report.
//
// It is started by run.sh, which builds servenode, indexbuild and this
// command first:
//
//	bash perfbench/run.sh --workload track-tower --seed 3 --seconds 15 --trace 0
//
// See README.md in this directory for the workloads, the metrics and which
// end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"viptree/internal/bench"
	"viptree/internal/engine"
	"viptree/internal/iptree"
	"viptree/internal/model"
	"viptree/internal/server"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload: wayfind-campus, track-tower or publish-towers")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Int("seconds", 15, "length of the measured window in seconds")
		traceFlag    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
		binDir       = flag.String("bin", "", "directory holding the servenode and indexbuild binaries")
		workDir      = flag.String("work", "", "directory for the run's snapshots, WALs and traces")
	)
	flag.Parse()
	if *binDir == "" || *workDir == "" || *seconds < 2 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -work, -seconds >= 2 and -trace 0 or 1")
		os.Exit(2)
	}
	w, err := findWorkload(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r := &runner{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, binDir: *binDir, workDir: *workDir}
	line, err := r.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// runner is one benchmark run.
type runner struct {
	w               *workload
	seed            int64
	seconds         time.Duration
	traced          bool
	binDir, workDir string

	v         *model.Venue
	pool      []*readBatch
	checkIdx  []int
	objects   []model.Location // initial positions (indexbuild -objseed <seed>)
	positions []model.Location // last acknowledged positions
	moves     *moveStream
	epochs    *epochWatch
	label     int

	tally
}

// The number of timed set-ups per untraced run; setup_s is their median.
const setups = 7

func (r *runner) run() (string, error) {
	runDir := filepath.Join(r.workDir, "runs", fmt.Sprintf("%s-seed%d-pid%d", r.w.name, r.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(runDir)
	r.generate()

	n := setups
	if r.traced {
		n = 1 // set-up time is an end-to-end metric; the traced run times its layers instead
	}
	var setupS []float64
	var node *nodeProc
	for i := 0; i < n; i++ {
		if node != nil {
			if err := node.stop(); err != nil {
				return "", fmt.Errorf("stopping set-up node: %w", err)
			}
		}
		var d time.Duration
		var err error
		node, d, err = setUp(r.w, r.binDir, filepath.Join(runDir, fmt.Sprintf("setup-%d", i)), r.seed)
		if err != nil {
			return "", err
		}
		setupS = append(setupS, d.Seconds())
	}
	defer func() {
		if node != nil {
			node.stop()
		}
	}()
	snapBytes, err := os.ReadFile(filepath.Join(node.snapDir, r.w.venue+"@0001.snap"))
	if err != nil {
		return "", err
	}
	r.label = 1
	r.epochs = &epochWatch{firstSeen: make(map[uint64]time.Time)}

	phase := func(tr *tracer, warm, length time.Duration) *loadResult {
		now := time.Now()
		lp := &loadPhase{w: r.w, node: node, pool: r.pool, tracer: tr, epochs: r.epochs,
			moves: r.moves, positions: r.positions, snap: snapBytes, label: &r.label,
			win: window{warm: now, start: now.Add(warm), end: now.Add(warm + length)}}
		res := lp.run()
		r.tally.add(res.tally)
		return res
	}
	var res, traced *loadResult
	var tr *tracer
	if r.traced {
		res = phase(nil, time.Second, r.seconds/2)
		tr = newTracer()
		traced = phase(tr, 0, r.seconds/2)
	} else {
		res = phase(nil, time.Second, r.seconds)
	}

	r.checkSample(node)
	stats, err := nodeStats(node)
	if err != nil {
		r.fail("statsz: %v", err)
	}
	if r.w.publishEvery > 0 && stats.Epoch != uint64(r.label) {
		r.fail("publish: node serves epoch %d after %d snapshots", stats.Epoch, r.label)
	}
	peakRSS, err := node.statusMB("VmHWM")
	if err != nil {
		return "", err
	}
	if err := node.stop(); err != nil {
		r.fail("servenode exit: %v", err)
	}
	node = nil

	r.report(res)
	fmt.Printf("# node: peak RSS %.2f MB, median RSS %.2f MB; CPU in window: node %.2f s, load generator %.2f s\n",
		peakRSS, median(res.rssMB), res.nodeCPU, res.genCPU)
	for _, f := range r.failures {
		fmt.Printf("# failure: %s\n", f)
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if !r.traced {
		lat := res.readLatMS
		if len(lat) == 0 {
			return "", errors.New("no read request completed inside the window")
		}
		out.set("throughput_qps", res.throughput())
		out.set("latency_p50_ms", quantile(lat, 0.5))
		out.set("latency_p95_ms", quantile(lat, 0.95))
		out.set("setup_s", median(setupS))
		out.set("node_rss_mb", median(res.rssMB))
		out.set("snapshot_mb", float64(len(snapBytes))/(1<<20))
		fmt.Printf("# setup_s samples: %s\n", fmtList(setupS))
		return out.encode()
	}

	env := &layerEnv{w: r.w, v: r.v, pool: r.pool, objects: r.objects, seed: r.seed,
		snap: snapBytes, dir: filepath.Join(runDir, "layers"), tr: tr, m: map[string]float64{}}
	env.snapDir = filepath.Join(env.dir, "snap")
	if err := os.MkdirAll(env.snapDir, 0o755); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(env.snapDir, r.w.venue+"@0001.snap"), snapBytes, 0o644); err != nil {
		return "", err
	}
	if err := env.runAll(); err != nil {
		return "", err
	}
	m := env.m
	m["server.shed"] = float64(stats.Shed)
	m["server.canceled"] = float64(stats.Canceled)
	m["server.panics"] = float64(stats.Panics)
	m["snapshot.loads_after_setup"] = float64(stats.Swaps - 1 + stats.Quarantines)
	m["loadgen.untraced_p50_ms"] = quantile(res.readLatMS, 0.5)
	m["loadgen.traced_p50_ms"] = quantile(traced.readLatMS, 0.5)
	m["loadgen.untraced_qps"] = res.throughput()
	m["loadgen.traced_qps"] = traced.throughput()
	m["loadgen.late_p95_ms"] = quantile(res.lateMS, 0.95)
	m["loadgen.cpu_share"] = res.genCPU / (res.genCPU + res.nodeCPU)
	m["server.cpu_us_per_query"] = 1e6 * res.nodeCPU / float64(res.queries)
	m["update_p50_ms"] = quantile(res.updateLatMS, 0.5)
	m["update_p95_ms"] = quantile(res.updateLatMS, 0.95)
	m["swap_s"] = median(res.swapS)
	m["error_rate"] = float64(r.failed) / float64(r.attempted)
	for _, pl := range perLayer {
		out.set(pl.name, m[pl.name])
		fmt.Printf("# layer %-36s %14.6f %-5s should move %s on %s", pl.name, m[pl.name], pl.unit, pl.moves, pl.on)
		if pl.flat != "" {
			fmt.Printf("; flat on %s", pl.flat)
		}
		fmt.Println()
	}
	for _, s := range tr.summarize() {
		fmt.Printf("# span %-36s n=%-6d total=%10.3fms self=%10.3fms\n", s.name, s.count, s.totalMS, s.selfMS)
	}
	traceDir := filepath.Join(r.workDir, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	spans := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.seed))
	if err := tr.writeSpans(spans); err != nil {
		return "", err
	}
	fmt.Printf("# spans written to %s\n", spans)
	return out.encode()
}

// generate makes every input from the seed: the read batch pool, the
// checked sample, the initial object positions and the move stream.
func (r *runner) generate() {
	rng := newRand(r.seed)
	r.v = r.w.makeVenue()
	for _, qs := range r.w.gen(r.v, rng) {
		b := &readBatch{queries: qs, body: encodeBatch(qs), wantObjects: make([]int, len(qs))}
		for i, q := range qs {
			if q.Kind == engine.KindKNN {
				b.wantObjects[i] = min(q.K, r.w.objects)
			}
		}
		r.pool = append(r.pool, b)
	}
	r.checkIdx = rng.Perm(len(r.pool))[:8]
	if r.w.objects > 0 {
		r.objects = bench.Objects(r.v, r.w.objects, r.seed)
		r.positions = append([]model.Location(nil), r.objects...)
	}
	r.moves = &moveStream{v: r.v, rng: newRand(r.seed + 1), objects: r.w.objects}
}

// checkSample re-asks the checked sample with updates stopped and compares
// every answer with the oracle.
func (r *runner) checkSample(node *nodeProc) {
	c := newClient(node.addr, r.w.venue)
	defer c.close()
	for _, i := range r.checkIdx {
		b := r.pool[i]
		r.attempted++
		status, err := c.post(b.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err == nil {
			err = checkAnswers(r.v, b.queries, c.buf.Bytes(), r.positions)
		}
		if err != nil {
			r.fail("answer check, batch %d: %v", i, err)
		}
	}
}

// nodeStats reads the workload venue's /statsz counters.
func nodeStats(node *nodeProc) (server.Stats, error) {
	var body struct {
		Venues map[string]server.Stats `json:"venues"`
	}
	resp, err := http.Get("http://" + node.addr + "/statsz")
	if err != nil {
		return server.Stats{}, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return server.Stats{}, err
	}
	for _, s := range body.Venues {
		return s, nil
	}
	return server.Stats{}, errors.New("no venue on /statsz")
}

// report prints the workload's seed-determined properties and the run's
// side measurements that are not end-to-end metrics.
func (r *runner) report(res *loadResult) {
	fmt.Printf("# workload %s (seed %d): %s\n", r.w.name, r.seed, r.w.why)
	fmt.Printf("# node flags beyond servenode defaults: %s\n", strings.Join(r.w.nodeFlags("<snapdir>", "<waldir>", "127.0.0.1:<port>"), " "))
	reads, distinct := 0, 0
	var reqBytes int
	var points []model.Location
	for _, b := range r.pool {
		seen := map[model.Location]bool{}
		for _, q := range b.queries {
			seen[q.S] = true
			if q.Kind == engine.KindKNN {
				points = append(points, q.S)
			}
		}
		reads += len(b.queries)
		distinct += len(seen)
		reqBytes += len(b.body)
	}
	fmt.Printf("# property distinct_sources_per_batch=%.4f repeated_source_share=%.4f request_bytes_per_query=%.2f\n",
		float64(distinct)/float64(len(r.pool)), 1-float64(distinct)/float64(reads), float64(reqBytes)/float64(reads))
	if len(points) > 0 {
		t := iptree.MustBuildVIPTree(r.v, iptree.Options{}).Tree
		fmt.Printf("# property same_leaf_objects_per_knn_query=%.4f over %d kNN queries\n", sameLeafPerQuery(t, points, r.objects), len(points))
	}
	if res.queries > 0 {
		fmt.Printf("# property response_bytes_per_query=%.2f (measured)\n", float64(res.respBytes)/float64(res.queries))
	}
	if r.w.moveEvery > 0 {
		fmt.Printf("# property moves_offered_per_s=%.1f\n", float64(r.w.movesPerBatch)/r.w.moveEvery.Seconds())
		fmt.Printf("# moves: %d batches in window, update_p50_ms=%.4f update_p95_ms=%.4f late_p95_ms=%.4f, %d moves acknowledged\n",
			len(res.updateLatMS), quantile(res.updateLatMS, 0.5), quantile(res.updateLatMS, 0.95), quantile(res.lateMS, 0.95), res.ackedMoves)
	}
	if r.w.publishEvery > 0 {
		fmt.Printf("# publishes: %d, swap_s median=%.4f samples=%s\n", res.publishes, median(res.swapS), fmtList(res.swapS))
	}
	fmt.Printf("# reads: %d requests in %.1fs window, %d queries; latency ms p50=%.4f p90=%.4f p99=%.4f max=%.4f mean=%.4f\n",
		len(res.readLatMS), res.seconds, res.queries, quantile(res.readLatMS, 0.5), quantile(res.readLatMS, 0.9),
		quantile(res.readLatMS, 0.99), quantile(res.readLatMS, 1), mean(res.readLatMS))
	fmt.Printf("# error_rate=%.6f (%d of %d operations failed)\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

func (o *result) encode() (string, error) {
	b, err := json.Marshal(o)
	return string(b), err
}

// quantile is the linearly interpolated q-quantile; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
