package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"viptree/internal/engine"
	"viptree/internal/index"
	"viptree/internal/iptree"
	"viptree/internal/model"
	"viptree/internal/server"
	"viptree/internal/snapshot"
	"viptree/internal/wal"
)

// The traced run's second phase hosts the layers in this process and
// replays the run's generated inputs through each layer's public functions,
// outside any timed window. Every call is wrapped in a span.

// layerEnv is what the replays share.
type layerEnv struct {
	w       *workload
	v       *model.Venue
	pool    []*readBatch
	objects []model.Location // initial object positions
	seed    int64
	snapDir string // holds the set-up's snapshot file
	snap    []byte // its bytes
	dir     string // scratch directory for the replays
	tr      *tracer
	m       map[string]float64
	// execMS is the planned engine time of each replayed pool batch.
	execMS []float64
}

// budget bounds each replay; every replay makes at least minCalls calls.
const (
	budget   = 1500 * time.Millisecond
	minCalls = 3
)

// timeEach runs fn(i) for i = 0, 1, ... n-1 until the budget is spent and
// returns each call's duration in milliseconds.
func timeEach(n int, fn func(i int) time.Duration) []float64 {
	var out []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < n && (i < minCalls || time.Now().Before(deadline)); i++ {
		out = append(out, ms(fn(i)))
	}
	return out
}

func (e *layerEnv) runAll() error {
	e.setupPath()
	if err := e.snapshotPath(); err != nil {
		return err
	}
	snap, err := snapshot.Read(bytes.NewReader(e.snap))
	if err != nil {
		return err
	}
	// The node verifies every snapshot it loads; this copy is verified too,
	// so both start from the same warmed state.
	if err := snap.Verify(); err != nil {
		return err
	}
	if err := e.serve(snap); err != nil {
		return err
	}
	e.indexCalls(snap)
	if e.w.moveEvery > 0 {
		return e.moveStream()
	}
	return nil
}

// setupPath: venue preset, VIP build, object index and snapshot write, as
// indexbuild runs them, three times each.
func (e *layerEnv) setupPath() {
	var gen, build, write []float64
	for i := 0; i < 3; i++ {
		root := e.tr.begin("setup", 0, 0)
		var v *model.Venue
		gen = append(gen, ms(e.tr.call("venuegen.generate", root.id, root.req, func() { v = e.w.makeVenue() })))
		var vt *iptree.VIPTree
		build = append(build, e.tr.call("iptree.build", root.id, root.req, func() { vt = iptree.MustBuildVIPTree(v, iptree.Options{}) }).Seconds())
		var oi *iptree.ObjectIndex
		if e.w.objects > 0 {
			e.tr.call("iptree.index_objects", root.id, root.req, func() { oi = vt.IndexObjects(e.objects) })
		}
		write = append(write, ms(e.tr.call("snapshot.write", root.id, root.req, func() {
			if err := snapshot.Write(io.Discard, v, vt, oi); err != nil {
				panic(err) // the same write indexbuild just made succeeded
			}
		})))
		root.end()
	}
	e.m["venuegen.generate_ms"] = median(gen)
	e.m["iptree.build_s"] = median(build)
	e.m["snapshot.write_ms"] = median(write)
}

// snapshotPath: the node's load path — file read through the counting FS,
// decode, Verify — five times.
func (e *layerEnv) snapshotPath() error {
	fs := newCountFS()
	path := filepath.Join(e.snapDir, e.w.venue+"@0001.snap")
	var read, decode, verify []float64
	for i := 0; i < 5; i++ {
		root := e.tr.begin("snapshot.load", 0, 0)
		var data []byte
		var err error
		read = append(read, ms(e.tr.call("snapshot.file_read", root.id, root.req, func() {
			var rc io.ReadCloser
			if rc, err = fs.Open(path); err == nil {
				data, err = io.ReadAll(rc)
				rc.Close()
			}
		})))
		if err != nil {
			return err
		}
		var snap *snapshot.Snapshot
		decode = append(decode, ms(e.tr.call("snapshot.decode", root.id, root.req, func() {
			snap, err = snapshot.Read(bytes.NewReader(data))
		})))
		if err != nil {
			return err
		}
		verify = append(verify, ms(e.tr.call("snapshot.verify", root.id, root.req, func() { err = snap.Verify() })))
		if err != nil {
			return err
		}
		root.end()
	}
	e.m["snapshot.read_bytes"] = float64(fs.readBytes.Load()) / float64(fs.reads.Load())
	e.m["snapshot.file_read_ms"] = median(read)
	e.m["snapshot.decode_ms"] = median(decode)
	e.m["snapshot.verify_ms"] = median(verify)
	return nil
}

// serve replays each request body through an in-process node's Handler,
// built over the same snapshot directory through the counting FS; its
// decoded queries through ExecuteBatchContext on an engine over the same
// snapshot; and the body again over loopback HTTP to that Handler. The three
// alternate batch by batch, so a slowdown of the shared machine hits all
// alike and the per-batch differences (wire = handler - engine, round trip
// = HTTP - handler) hold. An engine with the planner off replays the
// batches afterwards.
func (e *layerEnv) serve(snap *snapshot.Snapshot) error {
	node, err := server.New(server.Options{SnapshotDir: e.snapDir, FS: newCountFS()})
	if err != nil {
		return err
	}
	defer node.Close()
	h := node.Handler()
	ctx := context.Background()
	opts := engine.Options{}
	if snap.Objects != nil {
		opts.Objects = snap.Objects
	}
	planned := engine.New(snap.Index(), opts)
	srv := httptest.NewServer(h)
	defer srv.Close()
	url := srv.URL + "/query/" + e.w.venue
	var queries, reqBytes, respBytes int
	var roundtrip []float64
	var failed error
	handleMS := timeEach(len(e.pool), func(i int) time.Duration {
		b := e.pool[i]
		req := httptest.NewRequest(http.MethodPost, "/query/"+e.w.venue, bytes.NewReader(b.body))
		rec := httptest.NewRecorder()
		d := e.tr.call("server.handle", 0, 0, func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK && failed == nil {
			failed = fmt.Errorf("in-process handler: status %d: %.120s", rec.Code, rec.Body.String())
		}
		queries += len(b.queries)
		reqBytes += len(b.body)
		respBytes += rec.Body.Len()
		e.execMS = append(e.execMS, ms(e.tr.call("engine.exec", 0, 0, func() { planned.ExecuteBatchContext(ctx, b.queries) })))
		viaHTTP := e.tr.call("http.post", 0, 0, func() {
			resp, err := srv.Client().Post(url, "application/json", bytes.NewReader(b.body))
			if err != nil {
				failed = errors.Join(failed, err)
				return
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
				failed = errors.Join(failed, fmt.Errorf("loopback replay: status %d: %v", resp.StatusCode, err))
			}
		})
		roundtrip = append(roundtrip, ms(viaHTTP-d))
		return d
	})
	e.m["http.roundtrip_ms"] = median(roundtrip)
	e.m["server.wire_ms"] = pairedDiff(handleMS, e.execMS)
	e.m["server.handle_ms"] = median(handleMS)
	e.m["server.req_bytes_per_query"] = float64(reqBytes) / float64(queries)
	e.m["server.resp_bytes_per_query"] = float64(respBytes) / float64(queries)
	e.m["engine.exec_ms"] = median(e.execMS)
	st := planned.Stats()
	if reads := st.Reads(); reads > 0 {
		e.m["engine.batched_share"] = float64(st.BatchedDistance+st.BatchedKNN+st.BatchedRange) / float64(reads)
	}
	if snap.Objects != nil {
		cc := snap.Objects.ClimbCacheStats()
		if lookups := cc.Hits + cc.Misses; lookups > 0 {
			e.m["iptree.climb_cache_lookups"] = float64(lookups)
			e.m["iptree.climb_cache_hit_rate"] = float64(cc.Hits) / float64(lookups)
		}
	}

	opts.DisablePlanner = true
	unplanned := engine.New(snap.Index(), opts)
	e.m["engine.exec_unplanned_ms"] = median(timeEach(len(e.pool), func(i int) time.Duration {
		return e.tr.call("engine.exec_unplanned", 0, 0, func() { unplanned.ExecuteBatchContext(ctx, e.pool[i].queries) })
	}))
	return failed
}

// indexCalls times the index entry points per query on the workload's own
// queries, one worker, and counts the objects each kNN/range query finds in
// its own leaf.
func (e *layerEnv) indexCalls(snap *snapshot.Snapshot) {
	vt := snap.VIP
	var pairs [][]index.LocationPair
	var paths []engine.Query
	var knn [][]index.KNNQuery
	var ranges [][]index.RangeQuery
	for _, b := range e.pool {
		var ps []index.LocationPair
		var ks []index.KNNQuery
		var rs []index.RangeQuery
		for _, q := range b.queries {
			switch q.Kind {
			case engine.KindDistance:
				ps = append(ps, index.LocationPair{S: q.S, T: q.T})
			case engine.KindPath:
				paths = append(paths, q)
			case engine.KindKNN:
				ks = append(ks, index.KNNQuery{Q: q.S, K: q.K})
			case engine.KindRange:
				rs = append(rs, index.RangeQuery{Q: q.S, R: q.Radius})
			}
		}
		if len(ps) > 0 {
			pairs = append(pairs, ps)
		}
		if len(ks) > 0 {
			knn = append(knn, ks)
		}
		if len(rs) > 0 {
			ranges = append(ranges, rs)
		}
	}
	e.m["iptree.index_mb"] = float64(vt.MemoryBytes()) / (1 << 20)
	if snap.Objects != nil {
		e.m["iptree.index_mb"] += float64(snap.Objects.MemoryBytes()) / (1 << 20)
	}

	if len(pairs) > 0 {
		out := make([]float64, 64)
		e.m["iptree.distance_batch_us"] = perQueryUS(pairs, func(ps []index.LocationPair) time.Duration {
			return e.tr.call("iptree.distance_batch", 0, 0, func() { vt.DistanceBatch(ps, out, 1) })
		})
		e.m["iptree.distance_loop_us"] = perQueryUS(pairs, func(ps []index.LocationPair) time.Duration {
			return e.tr.call("iptree.distance_loop", 0, 0, func() {
				for i, p := range ps {
					out[i] = vt.Distance(p.S, p.T)
				}
			})
		})
	}
	if len(paths) > 0 {
		e.m["iptree.path_us"] = 1000 * median(timeEach(len(paths), func(i int) time.Duration {
			return e.tr.call("iptree.path", 0, 0, func() { vt.Path(paths[i].S, paths[i].T) })
		}))
	}
	oi := snap.Objects
	if oi == nil || len(knn)+len(ranges) == 0 {
		return
	}
	out := make([][]index.ObjectResult, 64)
	if len(knn) > 0 {
		e.m["iptree.knn_batch_us"] = perQueryUS(knn, func(ks []index.KNNQuery) time.Duration {
			return e.tr.call("iptree.knn_batch", 0, 0, func() { oi.KNNBatch(ks, out, 1) })
		})
		e.m["iptree.knn_us"] = perQueryUS(knn, func(ks []index.KNNQuery) time.Duration {
			return e.tr.call("iptree.knn", 0, 0, func() {
				for _, k := range ks {
					oi.KNN(k.Q, k.K)
				}
			})
		})
	}
	if len(ranges) > 0 {
		e.m["iptree.range_batch_us"] = perQueryUS(ranges, func(rs []index.RangeQuery) time.Duration {
			return e.tr.call("iptree.range_batch", 0, 0, func() { oi.RangeBatch(rs, out, 1) })
		})
	}

	// Objects in the query's own leaf, and what one exact D2D distance to
	// each of them costs (the per-object work of a leaf scan).
	var points []model.Location
	for _, ks := range knn {
		for _, k := range ks {
			points = append(points, k.Q)
		}
	}
	for _, rs := range ranges {
		for _, r := range rs {
			points = append(points, r.Q)
		}
	}
	calls := 0
	var distNS time.Duration
	for _, q := range points[:min(len(points), 64)] {
		inLeaf := sameLeaf(vt.Tree, q, e.objects)
		distNS += e.tr.call("model.d2d_location_dist", 0, 0, func() {
			for _, o := range inLeaf {
				e.v.D2D().LocationDist(q, o)
			}
		})
		calls += len(inLeaf)
	}
	e.m["iptree.same_leaf_objects_per_query"] = sameLeafPerQuery(vt.Tree, points, e.objects)
	if calls > 0 {
		e.m["model.d2d_location_dist_us"] = float64(distNS.Microseconds()) / float64(calls)
	}
}

// sameLeaf returns the objects in the leaf of q's partition: the objects a
// kNN or range search from q scans with one exact distance each.
func sameLeaf(t *iptree.Tree, q model.Location, objects []model.Location) []model.Location {
	var out []model.Location
	for _, o := range objects {
		if t.Leaf(o.Partition) == t.Leaf(q.Partition) {
			out = append(out, o)
		}
	}
	return out
}

// sameLeafPerQuery is the mean number of same-leaf objects over the points.
func sameLeafPerQuery(t *iptree.Tree, points, objects []model.Location) float64 {
	total := 0
	for _, q := range points {
		total += len(sameLeaf(t, q, objects))
	}
	return float64(total) / float64(len(points))
}

// pairedDiff is the median over batches of a[i] - b[i]: the cost one layer
// adds on top of the one below it, measured on the same batches.
func pairedDiff(a, b []float64) float64 {
	diffs := make([]float64, min(len(a), len(b)))
	for i := range diffs {
		diffs[i] = a[i] - b[i]
	}
	return median(diffs)
}

// perQueryUS times fn over the batches within the budget and returns the
// median batch time divided by the batch size, in microseconds.
func perQueryUS[T any](batches [][]T, fn func([]T) time.Duration) float64 {
	per := timeEach(len(batches), func(i int) time.Duration { return fn(batches[i]) })
	for i := range per {
		per[i] = 1000 * per[i] / float64(len(batches[i]))
	}
	return median(per)
}

// moveStream replays the workload's move schedule through engine.Move on a
// durable in-process engine whose WAL runs on the counting FS: per-move
// submit latency, and for each batch the time from its last Move returning
// until the WAL's durable watermark covers it.
func (e *layerEnv) moveStream() error {
	snap, err := snapshot.Read(bytes.NewReader(e.snap))
	if err != nil {
		return err
	}
	fs := newCountFS()
	walDir := filepath.Join(e.dir, "layer-wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	eng, _, err := engine.Open(snap.Index(), engine.Options{
		Objects:    snap.Objects,
		WALDir:     walDir,
		WALOptions: wal.Options{FS: fs, Sync: wal.SyncAlways()},
	})
	if err != nil {
		return err
	}
	stream := &moveStream{v: e.v, rng: newRand(e.seed + 1), objects: e.w.objects}
	var submit, lag []float64
	moves := 0
	start := time.Now()
	for due := start; time.Since(start) < 2*budget; due = due.Add(e.w.moveEvery) {
		qs := stream.next(e.w.movesPerBatch)
		time.Sleep(time.Until(due))
		root := e.tr.begin("updatelog.batch", 0, 0)
		for _, q := range qs {
			var merr error
			d := e.tr.call("updatelog.submit", root.id, root.req, func() { merr = eng.Move(q.ObjectID, q.S) })
			if merr != nil {
				eng.Close()
				return fmt.Errorf("in-process move: %w", merr)
			}
			submit = append(submit, 1000*ms(d))
			moves++
		}
		head := eng.ChangeLog().HeadSeq()
		var werr error
		d := e.tr.call("wal.wait_durable", root.id, root.req, func() { werr = eng.WAL().WaitDurable(head) })
		root.end()
		if werr != nil {
			eng.Close()
			return werr
		}
		lag = append(lag, ms(d))
	}
	if err := eng.Close(); err != nil {
		return err
	}
	e.m["updatelog.submit_p50_us"] = quantile(submit, 0.5)
	e.m["updatelog.submit_p95_us"] = quantile(submit, 0.95)
	e.m["wal.durable_lag_ms"] = median(lag)
	e.m["wal.fsyncs_per_update"] = float64(fs.syncs.Load()) / float64(moves)
	e.m["wal.bytes_per_update"] = float64(fs.written.Load()) / float64(moves)
	if n := fs.syncs.Load(); n > 0 {
		e.m["wal.fsync_ms"] = float64(fs.syncNS.Load()) / float64(n) / 1e6
	}
	return nil
}
