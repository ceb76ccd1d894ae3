package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"viptree/internal/engine"
	"viptree/internal/index"
	"viptree/internal/iptree"
	"viptree/internal/model"
	"viptree/internal/snapshot"
	"viptree/internal/venuegen"
	"viptree/internal/wal"
)

// testFixture is the shared, build-once material of the server tests: a
// venue, its VIP-Tree, and snapshot bytes at several versions. Versions
// differ in object count, so a kNN with k > max objects reveals which
// version answered — the observability hook of the swap and storm tests.
type testFixture struct {
	venue *model.Venue
	tree  *iptree.Tree
	// versions[label] = snapshot bytes; objectCount[label] = embedded count.
	versions    map[string][]byte
	objectCount map[string]int
	labels      []string // ascending
}

var (
	fixOnce sync.Once
	fix     *testFixture
)

// fixture builds the shared test material once per test binary.
func fixture(t *testing.T) *testFixture {
	t.Helper()
	fixOnce.Do(func() {
		v := venuegen.MustBuilding(venuegen.BuildingConfig{
			Name: "server-test", Floors: 2, RoomsPerHallway: 10, Seed: 11,
		})
		tree := iptree.MustBuildIPTree(v, iptree.Options{})
		vip := iptree.NewVIPTree(tree)
		f := &testFixture{
			venue:       v,
			tree:        tree,
			versions:    make(map[string][]byte),
			objectCount: make(map[string]int),
		}
		rng := rand.New(rand.NewSource(13))
		for i, label := range []string{"0001", "0002", "0003", "0004", "0005"} {
			count := 3 + 2*i // distinct per version
			objs := make([]model.Location, count)
			for j := range objs {
				objs[j] = v.RandomLocation(rng)
			}
			var buf bytes.Buffer
			if err := snapshot.Write(&buf, v, vip, tree.IndexObjects(objs)); err != nil {
				panic(err)
			}
			f.versions[label] = buf.Bytes()
			f.objectCount[label] = count
			f.labels = append(f.labels, label)
		}
		fix = f
	})
	return fix
}

// testNode starts a node over a FaultFS seeded with the given venue files
// (map venue name -> label). Fast poll and backoff timings for tests.
func testNode(t *testing.T, files map[string]string, tweak func(*Options)) (*Node, *wal.FaultFS) {
	t.Helper()
	f := fixture(t)
	fs := wal.NewFaultFS()
	fs.WriteFile("snaps/.keep", nil)
	for venueName, label := range files {
		fs.WriteFile("snaps/"+venueName+"@"+label+".snap", f.versions[label])
	}
	opts := Options{
		SnapshotDir:    "snaps",
		WALRoot:        "wal",
		FS:             fs,
		PollInterval:   2 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       20 * time.Millisecond,
		Workers:        2,
		WALOptions:     fastWALOptions(),
		Logf:           t.Logf,
	}
	if tweak != nil {
		tweak(&opts)
	}
	n, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, fs
}

func fastWALOptions() wal.Options {
	return wal.Options{
		Sync:          wal.SyncAlways(),
		MaxRetries:    2,
		RetryBackoff:  200 * time.Microsecond,
		ProbeInterval: 500 * time.Microsecond,
	}
}

// doJSON posts a QueryRequest and decodes the response envelope.
func doJSON(t *testing.T, h http.Handler, method, path string, body any) (int, map[string]json.RawMessage) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: non-JSON response %q", method, path, rec.Body.String())
	}
	return rec.Code, out
}

// queryBatch posts queries to a venue and decodes the typed response.
func queryBatch(t *testing.T, h http.Handler, venueName string, queries []WireQuery) (int, QueryResponse) {
	t.Helper()
	b, err := json.Marshal(QueryRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/query/"+venueName, bytes.NewReader(b))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp QueryResponse
	if rec.Code == http.StatusOK || rec.Code == http.StatusBadRequest || rec.Code == http.StatusInternalServerError {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding response %q: %v", rec.Body.String(), err)
		}
	}
	return rec.Code, resp
}

func wireLoc(l model.Location) WireLocation {
	return WireLocation{Partition: int(l.Partition), X: l.Point.X, Y: l.Point.Y, Floor: l.Point.Floor}
}

// distanceProbe builds distance queries with their exact expected answers.
func distanceProbe(f *testFixture, n int, seed int64) ([]WireQuery, []float64) {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]WireQuery, n)
	want := make([]float64, n)
	for i := range qs {
		s, u := f.venue.RandomLocation(rng), f.venue.RandomLocation(rng)
		qs[i] = WireQuery{Kind: "distance", S: wireLoc(s), T: wireLoc(u)}
		want[i] = f.venue.D2D().LocationDist(s, u)
	}
	return qs, want
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServeTwoVenues: the node hosts two venues from one directory and
// answers exact distance queries on both.
func TestServeTwoVenues(t *testing.T) {
	f := fixture(t)
	n, _ := testNode(t, map[string]string{"alpha": "0001", "beta": "0002"}, nil)
	h := n.Handler()

	for _, venueName := range []string{"alpha", "beta"} {
		qs, want := distanceProbe(f, 20, 29)
		code, resp := queryBatch(t, h, venueName, qs)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", venueName, code)
		}
		if resp.Epoch != 1 {
			t.Fatalf("%s: epoch %d, want 1", venueName, resp.Epoch)
		}
		for i, r := range resp.Results {
			if r.Err != "" || abs(r.Dist-want[i]) > 1e-6 {
				t.Fatalf("%s query %d: got %+v, want dist %v", venueName, i, r, want[i])
			}
		}
	}

	// kNN sees each venue's own object count.
	for venueName, label := range map[string]string{"alpha": "0001", "beta": "0002"} {
		code, resp := queryBatch(t, h, venueName, []WireQuery{
			{Kind: "knn", S: wireLoc(f.venue.RandomLocation(rand.New(rand.NewSource(1)))), K: 100},
		})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", venueName, code)
		}
		if got := len(resp.Results[0].Objects); got != f.objectCount[label] {
			t.Fatalf("%s: kNN saw %d objects, want %d", venueName, got, f.objectCount[label])
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestHTTPErrors pins the error surface: unknown venue 404, bad kind 400,
// malformed body 400.
func TestHTTPErrors(t *testing.T) {
	n, _ := testNode(t, map[string]string{"alpha": "0001"}, nil)
	h := n.Handler()

	if code, _ := doJSON(t, h, "POST", "/query/nosuch", QueryRequest{}); code != http.StatusNotFound {
		t.Fatalf("unknown venue: %d", code)
	}
	if code, _ := doJSON(t, h, "POST", "/query/alpha", QueryRequest{Queries: []WireQuery{{Kind: "teleport"}}}); code != http.StatusBadRequest {
		t.Fatalf("unknown kind: %d", code)
	}
	req := httptest.NewRequest("POST", "/query/alpha", strings.NewReader("{"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", rec.Code)
	}
}

// TestAdmissionControl: with the semaphore full, requests are shed with 429
// and counted; with a slot free they are admitted again.
func TestAdmissionControl(t *testing.T) {
	n, _ := testNode(t, map[string]string{"alpha": "0001"}, func(o *Options) { o.MaxInflight = 2 })
	h := n.Handler()
	f := fixture(t)
	qs, _ := distanceProbe(f, 1, 31)

	n.sem <- struct{}{}
	n.sem <- struct{}{} // node now "full"
	code, _ := queryBatch(t, h, "alpha", qs)
	if code != http.StatusTooManyRequests {
		t.Fatalf("full node: status %d, want 429", code)
	}
	v, _ := n.Venue("alpha")
	if v.shed.Load() != 1 || n.shedTotal.Load() != 1 {
		t.Fatalf("shed counters: venue=%d node=%d, want 1/1", v.shed.Load(), n.shedTotal.Load())
	}
	<-n.sem
	if code, _ := queryBatch(t, h, "alpha", qs); code != http.StatusOK {
		t.Fatalf("after freeing a slot: status %d", code)
	}
	<-n.sem
}

// TestHealthEndpoints: healthz always 200; readyz 200 while serving, 503
// when draining; per-venue healthz reflects the venue.
func TestHealthEndpoints(t *testing.T) {
	n, _ := testNode(t, map[string]string{"alpha": "0001"}, nil)
	h := n.Handler()

	if code, _ := doJSON(t, h, "GET", "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if code, _ := doJSON(t, h, "GET", "/healthz/alpha", nil); code != http.StatusOK {
		t.Fatalf("healthz/alpha: %d", code)
	}
	if code, _ := doJSON(t, h, "GET", "/healthz/nosuch", nil); code != http.StatusNotFound {
		t.Fatalf("healthz/nosuch: %d", code)
	}
	code, body := doJSON(t, h, "GET", "/readyz", nil)
	if code != http.StatusOK {
		t.Fatalf("readyz while serving: %d (%s)", code, body)
	}

	n.BeginDrain()
	if code, _ := doJSON(t, h, "GET", "/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", code)
	}
	// Draining sheds new queries too.
	f := fixture(t)
	qs, _ := distanceProbe(f, 1, 37)
	if code, _ := queryBatch(t, h, "alpha", qs); code != http.StatusTooManyRequests {
		t.Fatalf("query while draining: %d, want 429", code)
	}
}

// TestStatsz: the stats endpoint surfaces per-venue counters and node
// totals in the documented shape.
func TestStatsz(t *testing.T) {
	n, _ := testNode(t, map[string]string{"alpha": "0001"}, nil)
	h := n.Handler()
	f := fixture(t)
	qs, _ := distanceProbe(f, 5, 41)
	if code, _ := queryBatch(t, h, "alpha", qs); code != http.StatusOK {
		t.Fatal("probe batch failed")
	}

	code, body := doJSON(t, h, "GET", "/statsz", nil)
	if code != http.StatusOK {
		t.Fatalf("statsz: %d", code)
	}
	var venues map[string]Stats
	if err := json.Unmarshal(body["venues"], &venues); err != nil {
		t.Fatal(err)
	}
	s, ok := venues["alpha"]
	if !ok {
		t.Fatalf("statsz has no venue alpha: %s", body["venues"])
	}
	if s.State != StateServing || s.Epoch != 1 || s.Queries != 5 || s.Swaps != 1 {
		t.Fatalf("unexpected stats: %+v", s)
	}
	if s.Snapshot != "alpha@0001.snap" {
		t.Fatalf("snapshot file: %q", s.Snapshot)
	}
}

// poisonX marks the one query point panickyIndex panics on.
const poisonX = -4242

// panickyIndex wraps a working index with a bug: Distance panics for a
// source at x = poisonX. No input from the wire can panic the shipped
// indexes (the engine rejects bad queries first), so the panic isolation
// tests inject one.
type panickyIndex struct{ index.Index }

func (p panickyIndex) Distance(s, t model.Location) float64 {
	if s.Point.X == poisonX {
		panic("injected index bug")
	}
	return p.Index.Distance(s, t)
}

// servePanicky swaps the venue's engine for one over panickyIndex, retiring
// the loaded engine the way a hot swap does.
func servePanicky(t *testing.T, v *venue) {
	t.Helper()
	old := v.cur.Load()
	le := &liveEngine{
		eng:     engine.New(panickyIndex{old.eng.Index()}, engine.Options{Workers: 2}),
		file:    old.file,
		label:   old.label,
		epoch:   old.epoch,
		drained: make(chan struct{}),
	}
	v.cur.Store(le)
	if err := retire(old); err != nil {
		t.Fatal(err)
	}
}

// TestPanicCounter: a query that panics inside the engine surfaces as a 500
// with err_kind "panic", bumps the venue counter, and the node survives.
func TestPanicCounter(t *testing.T) {
	n, _ := testNode(t, map[string]string{"alpha": "0001"}, nil)
	h := n.Handler()
	v, _ := n.Venue("alpha")
	servePanicky(t, v)

	code, resp := queryBatch(t, h, "alpha", []WireQuery{
		{Kind: "distance", S: WireLocation{Partition: 0, X: poisonX}, T: WireLocation{Partition: 1}},
	})
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking query: status %d, want 500", code)
	}
	if resp.Results[0].ErrKind != "panic" {
		t.Fatalf("err_kind %q, want panic", resp.Results[0].ErrKind)
	}
	if v.panics.Load() != 1 {
		t.Fatalf("panic counter %d, want 1", v.panics.Load())
	}
	// The venue keeps serving.
	f := fixture(t)
	qs, _ := distanceProbe(f, 3, 43)
	if code, _ := queryBatch(t, h, "alpha", qs); code != http.StatusOK {
		t.Fatalf("venue dead after panic: %d", code)
	}
}

// TestInvalidQueriesAre400: a partition outside the venue, k < 1 and a
// negative radius are typed refusals — HTTP 400 with err_kind "invalid" on
// exactly the bad queries — and never reach the panic counter. (JSON has no
// NaN; the engine tests cover a NaN radius.)
func TestInvalidQueriesAre400(t *testing.T) {
	n, _ := testNode(t, map[string]string{"alpha": "0001"}, nil)
	h := n.Handler()
	f := fixture(t)
	good, want := distanceProbe(f, 1, 47)
	far := WireLocation{Partition: 1 << 30}
	bad := []WireQuery{
		{Kind: "distance", S: far, T: good[0].T},
		{Kind: "path", S: good[0].S, T: WireLocation{Partition: -1}},
		{Kind: "knn", S: far, K: 3},
		{Kind: "knn", S: good[0].S, K: 0},
		{Kind: "range", S: good[0].S, Radius: -1},
		{Kind: "insert", S: far},
	}
	for i, q := range bad {
		code, resp := queryBatch(t, h, "alpha", []WireQuery{good[0], q})
		if code != http.StatusBadRequest {
			t.Fatalf("bad query %d (%+v): status %d, want 400", i, q, code)
		}
		if r := resp.Results[0]; r.Err != "" || abs(r.Dist-want[0]) > 1e-6 {
			t.Fatalf("bad query %d: the valid query beside it got %+v, want dist %v", i, r, want[0])
		}
		if r := resp.Results[1]; r.ErrKind != "invalid" {
			t.Fatalf("bad query %d: err_kind %q (%s), want invalid", i, r.ErrKind, r.Err)
		}
	}
	v, _ := n.Venue("alpha")
	code, body := doJSON(t, h, "GET", "/statsz", nil)
	if code != http.StatusOK {
		t.Fatalf("statsz: %d", code)
	}
	var venues map[string]Stats
	if err := json.Unmarshal(body["venues"], &venues); err != nil {
		t.Fatal(err)
	}
	if p := venues["alpha"].Panics; p != 0 || v.panics.Load() != 0 {
		t.Fatalf("statsz panics = %d (counter %d), want 0", p, v.panics.Load())
	}
}

// TestDurableUpdatesAcrossLineage: updates flow to the WAL lineage of the
// served snapshot version, and Close flushes them.
func TestDurableUpdatesAcrossLineage(t *testing.T) {
	f := fixture(t)
	n, fs := testNode(t, map[string]string{"alpha": "0001"}, nil)
	h := n.Handler()

	rng := rand.New(rand.NewSource(47))
	loc := f.venue.RandomLocation(rng)
	code, resp := queryBatch(t, h, "alpha", []WireQuery{{Kind: "insert", S: wireLoc(loc)}})
	if code != http.StatusOK || resp.Results[0].Err != "" {
		t.Fatalf("insert: %d %+v", code, resp.Results)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The WAL lineage dir of version 0001 holds the record.
	names, err := fs.ReadDir("wal/alpha/0001")
	if err != nil || len(names) == 0 {
		t.Fatalf("no WAL segments in lineage dir: %v %v", names, err)
	}
}

// TestCloseWaitsForInflight: Close must not yank an engine from under an
// in-flight batch — the batch finishes first (zero dropped queries).
func TestCloseWaitsForInflight(t *testing.T) {
	f := fixture(t)
	n, _ := testNode(t, map[string]string{"alpha": "0001"}, nil)
	v, _ := n.Venue("alpha")

	le := v.acquire()
	if le == nil {
		t.Fatal("no live engine")
	}
	done := make(chan error, 1)
	go func() { done <- n.Close() }()
	select {
	case <-done:
		t.Fatal("Close returned while a reference was held")
	case <-time.After(20 * time.Millisecond):
	}
	// The engine still answers while referenced, even mid-shutdown.
	rng := rand.New(rand.NewSource(53))
	s, u := f.venue.RandomLocation(rng), f.venue.RandomLocation(rng)
	got := le.eng.Execute(engine.Query{Kind: engine.KindDistance, S: s, T: u})
	if abs(got.Dist-f.venue.D2D().LocationDist(s, u)) > 1e-6 {
		t.Fatalf("query during drain: %v", got)
	}
	le.release()
	if err := <-done; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestNewVenueAppearsLater: a venue whose first snapshot lands after the
// node started is picked up by the watcher.
func TestNewVenueAppearsLater(t *testing.T) {
	f := fixture(t)
	n, fs := testNode(t, map[string]string{"alpha": "0001"}, nil)

	if _, ok := n.Venue("beta"); ok {
		t.Fatal("venue beta exists before its snapshot")
	}
	fs.WriteFile("snaps/beta@0001.snap", f.versions["0001"])
	waitFor(t, 2*time.Second, "venue beta to serve", func() bool {
		v, ok := n.Venue("beta")
		return ok && v.Epoch() == 1
	})
	qs, want := distanceProbe(f, 5, 59)
	code, resp := queryBatch(t, n.Handler(), "beta", qs)
	if code != http.StatusOK {
		t.Fatalf("beta: %d", code)
	}
	for i, r := range resp.Results {
		if r.Err != "" || abs(r.Dist-want[i]) > 1e-6 {
			t.Fatalf("beta query %d: %+v", i, r)
		}
	}
}
