package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"viptree/internal/engine"
	"viptree/internal/model"
)

// readBatch is one pooled read request: its queries and its encoded body.
type readBatch struct {
	queries []engine.Query
	body    []byte
	// wantObjects is the exact result count of each kNN query (0 for other
	// kinds), checked on every response.
	wantObjects []int
}

// window is the timing of one load phase: requests start from warm, and
// only those that start at or after start and finish by end are measured.
type window struct {
	warm, start, end time.Time
}

func (w window) in(t0, t1 time.Time) bool { return !t0.Before(w.start) && !t1.After(w.end) }

// slotLen is the length of one throughput slot: throughput is reported as
// the median over the window's slots, so a stall of the shared machine
// moves one slot, not the run's figure.
const slotLen = 2 * time.Second

func (w window) slots() int { return max(1, int(w.end.Sub(w.start)/slotLen)) }

// slot returns the slot an in-window completion time falls in.
func (w window) slot(t time.Time) int { return min(int(t.Sub(w.start)/slotLen), w.slots()-1) }

// throughput is the median over slots of queries per second.
func (r *loadResult) throughput() float64 {
	per := make([]float64, len(r.slotQueries))
	for i, q := range r.slotQueries {
		secs := slotLen.Seconds()
		if i == len(per)-1 { // the last slot takes the remainder
			secs = r.seconds - float64(i)*slotLen.Seconds()
		}
		per[i] = float64(q) / secs
	}
	return median(per)
}

// loadResult is what one load phase measured.
type loadResult struct {
	seconds             float64
	readLatMS           []float64 // per read request, in window
	queries             int64     // queries answered in window by the readers
	slotQueries         []int64   // the same, per throughput slot of the window
	respBytes           int64     // read response bytes in window
	updateLatMS, lateMS []float64 // move batches in window, from their due time
	swapS               []float64 // per publish: rename to first response with its epoch
	publishes           int
	rssMB               []float64 // node VmRSS sampled every 100 ms in window
	nodeCPU, genCPU     float64   // CPU seconds of the node and of this process in window
	ackedMoves          int
	tally
}

// tally counts attempted and failed operations and keeps the first few
// failure messages.
type tally struct {
	attempted, failed int64
	failures          []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 8 {
			t.failures = append(t.failures, f)
		}
	}
}

func (r *loadResult) merge(o *loadResult) {
	r.readLatMS = append(r.readLatMS, o.readLatMS...)
	r.queries += o.queries
	if len(r.slotQueries) < len(o.slotQueries) {
		r.slotQueries = append(r.slotQueries, make([]int64, len(o.slotQueries)-len(r.slotQueries))...)
	}
	for i, q := range o.slotQueries {
		r.slotQueries[i] += q
	}
	r.respBytes += o.respBytes
	r.updateLatMS = append(r.updateLatMS, o.updateLatMS...)
	r.swapS = append(r.swapS, o.swapS...)
	r.publishes += o.publishes
	r.lateMS = append(r.lateMS, o.lateMS...)
	r.tally.add(o.tally)
	r.ackedMoves += o.ackedMoves
	r.rssMB = append(r.rssMB, o.rssMB...)
	r.nodeCPU += o.nodeCPU
	r.genCPU += o.genCPU
}

// epochWatch records when each swap epoch was first seen in a response.
type epochWatch struct {
	mu        sync.Mutex
	max       uint64
	firstSeen map[uint64]time.Time
}

func (e *epochWatch) saw(epoch uint64, t time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for ; e.max < epoch; e.max++ {
		e.firstSeen[e.max+1] = t
	}
}

func (e *epochWatch) first(epoch uint64) (time.Time, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.firstSeen[epoch]
	return t, ok
}

// client is one loopback connection: one keep-alive TCP connection, a
// reused response buffer and decode target, and the last swap epoch seen.
type client struct {
	hc    *http.Client
	url   string
	buf   bytes.Buffer
	lr    lightResponse
	epoch uint64
}

func newClient(addr, venue string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, url: "http://" + addr + "/query/" + venue}
}

// post sends one body; the response body stays in c.buf until the next call.
func (c *client) post(body []byte) (int, error) {
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// lightResponse is the part of a response every request checks: the swap
// epoch, the result count, per-query errors and kNN result counts.
type lightResponse struct {
	Epoch   uint64 `json:"epoch"`
	Results []struct {
		Err     string     `json:"err"`
		Objects []struct{} `json:"objects"`
	} `json:"results"`
}

// send posts one body and checks the answer: status, result count,
// per-query errors, kNN result counts (want, 0 for other kinds) and that the
// epoch never goes down on this connection.
func (c *client) send(body []byte, want []int) error {
	status, err := c.post(body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.120s", status, c.buf.Bytes())
	}
	// Unmarshal reuses the results' backing array without zeroing it, and
	// an absent "err" must read as empty.
	lr := &c.lr
	clear(lr.Results[:cap(lr.Results)])
	lr.Results = lr.Results[:0]
	if err := json.Unmarshal(c.buf.Bytes(), lr); err != nil {
		return fmt.Errorf("decoding response: %v", err)
	}
	if len(lr.Results) != len(want) {
		return fmt.Errorf("%d results for %d queries", len(lr.Results), len(want))
	}
	for i, res := range lr.Results {
		if res.Err != "" {
			return fmt.Errorf("query %d: %s", i, res.Err)
		}
		if want[i] > 0 && len(res.Objects) != want[i] {
			return fmt.Errorf("query %d: %d kNN results, want %d", i, len(res.Objects), want[i])
		}
	}
	if lr.Epoch < c.epoch {
		return fmt.Errorf("epoch went down: %d after %d", lr.Epoch, c.epoch)
	}
	c.epoch = lr.Epoch
	return nil
}

// loadPhase drives one load phase against a running node.
type loadPhase struct {
	w         *workload
	node      *nodeProc
	pool      []*readBatch
	win       window
	tracer    *tracer // nil: untraced
	epochs    *epochWatch
	moves     *moveStream
	positions []model.Location // last acknowledged object positions; updated by the mover
	snap      []byte           // the prebuilt snapshot publishes copy
	label     *int             // last published label, shared across phases on one node
}

func (lp *loadPhase) run() *loadResult {
	var wg sync.WaitGroup
	parts := make([]*loadResult, lp.w.readers+3)
	for i := 0; i < lp.w.readers; i++ {
		parts[i] = &loadResult{slotQueries: make([]int64, lp.win.slots())}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lp.reader(i, parts[i])
		}(i)
	}
	if lp.w.moveEvery > 0 {
		parts[lp.w.readers] = &loadResult{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lp.mover(parts[lp.w.readers])
		}()
	}
	if lp.w.publishEvery > 0 {
		parts[lp.w.readers+1] = &loadResult{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lp.publisher(parts[lp.w.readers+1])
		}()
	}
	parts[lp.w.readers+2] = &loadResult{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		lp.sample(parts[lp.w.readers+2])
	}()
	wg.Wait()
	res := &loadResult{seconds: lp.win.end.Sub(lp.win.start).Seconds()}
	for _, p := range parts {
		if p != nil {
			res.merge(p)
		}
	}
	return res
}

func (lp *loadPhase) reader(id int, res *loadResult) {
	c := newClient(lp.node.addr, lp.w.venue)
	defer c.close()
	next := id * len(lp.pool) / lp.w.readers
	for {
		t0 := time.Now()
		if !t0.Before(lp.win.end) {
			break
		}
		b := lp.pool[next%len(lp.pool)]
		next++
		res.attempted++
		err := c.send(b.body, b.wantObjects)
		t1 := time.Now()
		if err != nil {
			res.fail("read: %v", err)
			continue
		}
		if lp.epochs != nil {
			lp.epochs.saw(c.epoch, t1)
		}
		if lp.tracer != nil {
			lp.tracer.client("client.request", t0, t1)
		}
		if lp.win.in(t0, t1) {
			res.readLatMS = append(res.readLatMS, ms(t1.Sub(t0)))
			res.queries += int64(len(b.queries))
			res.slotQueries[lp.win.slot(t1)] += int64(len(b.queries))
			res.respBytes += int64(c.buf.Len())
		}
	}
}

// mover sends move batches on a fixed schedule from the phase's warm-up
// start. Each batch is timed from when it was due, so a stall also counts
// against the batches queued behind it.
func (lp *loadPhase) mover(res *loadResult) {
	c := newClient(lp.node.addr, lp.w.venue)
	defer c.close()
	want := make([]int, lp.w.movesPerBatch)
	for due := lp.win.warm; due.Before(lp.win.end); due = due.Add(lp.w.moveEvery) {
		qs := lp.moves.next(lp.w.movesPerBatch)
		body := encodeBatch(qs)
		time.Sleep(time.Until(due))
		sent := time.Now()
		res.attempted++
		err := c.send(body, want)
		done := time.Now()
		if err != nil {
			// An unacknowledged move may or may not have applied; the
			// oracle can no longer know the object's position.
			res.fail("move: %v", err)
			continue
		}
		for _, q := range qs {
			lp.positions[q.ObjectID] = q.S
		}
		res.ackedMoves += len(qs)
		if lp.tracer != nil {
			lp.tracer.client("client.move_batch", sent, done)
		}
		if lp.win.in(due, done) {
			res.updateLatMS = append(res.updateLatMS, ms(done.Sub(due)))
			res.lateMS = append(res.lateMS, ms(sent.Sub(due)))
		}
	}
}

// publisher copies the prebuilt snapshot under a temporary name (no .snap
// suffix, so the node ignores it) and renames it to the next label, once
// per period inside the measured window. Each publish's swap time runs from
// the rename to the first response carrying its epoch.
func (lp *loadPhase) publisher(res *loadResult) {
	type pending struct {
		epoch uint64
		at    time.Time
	}
	var pubs []pending
	stopAt := lp.win.end.Add(-1500 * time.Millisecond)
	for due := lp.win.start; due.Before(stopAt); due = due.Add(lp.w.publishEvery) {
		time.Sleep(time.Until(due))
		*lp.label++
		res.attempted++
		name := fmt.Sprintf("%s@%04d.snap", lp.w.venue, *lp.label)
		tmp := filepath.Join(lp.node.snapDir, fmt.Sprintf("incoming-%04d", *lp.label))
		if err := os.WriteFile(tmp, lp.snap, 0o644); err != nil {
			res.fail("publish: %v", err)
			continue
		}
		if err := os.Rename(tmp, filepath.Join(lp.node.snapDir, name)); err != nil {
			res.fail("publish: %v", err)
			continue
		}
		// Label n is the node's n-th snapshot, served at swap epoch n.
		pubs = append(pubs, pending{epoch: uint64(*lp.label), at: time.Now()})
	}
	// Wait for the readers to see the last publish; they stop at the end.
	time.Sleep(time.Until(lp.win.end))
	for _, p := range pubs {
		seen, ok := lp.epochs.first(p.epoch)
		if !ok {
			res.fail("publish: epoch %d never served within the window", p.epoch)
			continue
		}
		res.swapS = append(res.swapS, seen.Sub(p.at).Seconds())
		if lp.tracer != nil {
			lp.tracer.client("client.publish_to_first_response", p.at, seen)
		}
	}
	res.publishes = len(pubs)
}

// sample reads the node's resident set every 100 ms of the window, and the
// CPU time the node and this process spent in it.
func (lp *loadPhase) sample(res *loadResult) {
	time.Sleep(time.Until(lp.win.start))
	node0, err := lp.node.cpuSeconds()
	if err != nil {
		res.fail("sampling node: %v", err)
		return
	}
	self0 := selfCPU()
	for t := lp.win.start; t.Before(lp.win.end); t = t.Add(100 * time.Millisecond) {
		time.Sleep(time.Until(t))
		mb, err := lp.node.statusMB("VmRSS")
		if err != nil {
			res.fail("sampling node: %v", err)
			return
		}
		res.rssMB = append(res.rssMB, mb)
	}
	time.Sleep(time.Until(lp.win.end))
	node1, err := lp.node.cpuSeconds()
	if err != nil {
		res.fail("sampling node: %v", err)
		return
	}
	res.nodeCPU, res.genCPU = node1-node0, selfCPU()-self0
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
