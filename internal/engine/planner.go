package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"viptree/internal/index"
)

// This file implements the batched query planner. When the engine's index
// supports batched queries (index.DistanceBatcher for distance queries —
// the IP-Tree and VIP-Tree, which share leaf-to-LCA climbs across a batch —
// and index.KNNBatcher/RangeBatcher for object queries, which share the
// Algorithm-2 source climbs and the climb cache), ExecuteBatch routes the
// batchable queries through the index-level batch calls instead of per-query
// calls, and fans only the remaining reads over the worker pool. Results are
// positionally identical to the unplanned path: the batch calls are
// bit-identical to their per-query counterparts, and the other queries still
// run through Execute.
//
// Batches containing object updates are split into maximal read runs: the
// reads between two updates still plan, the updates execute with the legacy
// interleaving (pooled within their own run). A read observes the object
// state after every update of an earlier run and before every update of a
// later one — at least as strong as the unplanned path, which interleaves
// the whole batch arbitrarily.

// planBatch attempts the planned execution of a batch, writing results into
// out. It returns false — having written nothing — when the batch does not
// qualify: no batch-capable index, an unknown kind in the batch, or no run
// with at least two batchable queries of one kind to amortise. The execution
// context is honoured at segment granularity: a canceled context marks the
// remaining segments' queries with the cancellation error, and in safe mode
// a panicking segment yields *PanicError results for exactly its queries.
func (e *Engine) planBatch(ec *execCtx, queries []Query, out []Result, workers int) bool {
	if e.batcher == nil && e.knnBatcher == nil && e.rangeBatcher == nil {
		return false
	}
	// One qualification pass: count batchable queries per read run, bailing
	// on unknown kinds (the unplanned path reports ErrUnknownKind per
	// query). A run qualifies when one kind has >= 2 queries to amortise
	// and the index grants the capability.
	plan := false
	nDist, nKNN, nRange := 0, 0, 0
	flush := func() {
		if (e.batcher != nil && nDist >= 2) ||
			(e.knnBatcher != nil && nKNN >= 2) ||
			(e.rangeBatcher != nil && nRange >= 2) {
			plan = true
		}
		nDist, nKNN, nRange = 0, 0, 0
	}
	for i := range queries {
		switch queries[i].Kind {
		case KindDistance:
			nDist++
		case KindKNN:
			nKNN++
		case KindRange:
			nRange++
		case KindPath:
		case KindInsert, KindDelete, KindMove:
			flush()
		default:
			return false
		}
	}
	flush()
	if !plan {
		return false
	}
	// Execute the runs in order: planned read runs, pooled update runs.
	lo := 0
	for i := 0; i <= len(queries); i++ {
		if i < len(queries) && queries[i].Kind.IsUpdate() == queries[lo].Kind.IsUpdate() {
			continue
		}
		if queries[lo].Kind.IsUpdate() {
			runPooled(i-lo, workers, func(k int) {
				out[lo+k] = e.executeOne(ec, queries[lo+k])
			})
		} else {
			e.planReadRun(ec, queries[lo:i], out[lo:i], workers)
		}
		lo = i
	}
	return true
}

// planReadRun executes one all-read run: the batchable segments (>= 2
// queries of a kind with the matching capability) go through the index-level
// batch calls, everything else through the pooled per-query path. With
// latency sampling enabled, each batched segment records the amortised
// per-query share of its duration — kNN and range exactly like distance.
func (e *Engine) planReadRun(ec *execCtx, queries []Query, out []Result, workers int) {
	nDist, nKNN, nRange := 0, 0, 0
	for i := range queries {
		switch queries[i].Kind {
		case KindDistance:
			nDist++
		case KindKNN:
			nKNN++
		case KindRange:
			nRange++
		}
	}
	batchDist := e.batcher != nil && nDist >= 2
	batchKNN := e.knnBatcher != nil && nKNN >= 2
	batchRange := e.rangeBatcher != nil && nRange >= 2
	var (
		pairs    []index.LocationPair
		distPos  []int32
		knns     []index.KNNQuery
		knnPos   []int32
		ranges   []index.RangeQuery
		rangePos []int32
		rest     []int32
	)
	for i := range queries {
		q := &queries[i]
		if err := e.validate(q); err != nil {
			out[i] = Result{Err: err}
			continue
		}
		switch {
		case q.Kind == KindDistance && batchDist:
			pairs = append(pairs, index.LocationPair{S: q.S, T: q.T})
			distPos = append(distPos, int32(i))
		case q.Kind == KindKNN && batchKNN:
			knns = append(knns, index.KNNQuery{Q: q.S, K: q.K})
			knnPos = append(knnPos, int32(i))
		case q.Kind == KindRange && batchRange:
			ranges = append(ranges, index.RangeQuery{Q: q.S, R: q.Radius})
			rangePos = append(rangePos, int32(i))
		default:
			rest = append(rest, int32(i))
		}
	}
	if batchDist {
		start := e.latStart()
		if ec.canceled() {
			markAll(out, distPos, ec.cancelErr())
		} else {
			dists := make([]float64, len(pairs))
			if perr := ec.guard(func() { e.batcher.DistanceBatch(pairs, dists, workers) }); perr != nil {
				markAll(out, distPos, perr)
			} else {
				for k, i := range distPos {
					out[i] = Result{Dist: dists[k]}
				}
				e.counts[KindDistance].Add(int64(len(pairs)))
				e.batched[KindDistance].Add(int64(len(pairs)))
				e.recordAmortised(start, len(pairs))
			}
		}
	}
	if batchKNN {
		start := e.latStart()
		if ec.canceled() {
			markAll(out, knnPos, ec.cancelErr())
		} else {
			objs := make([][]index.ObjectResult, len(knns))
			if perr := ec.guard(func() { e.knnBatcher.KNNBatch(knns, objs, workers) }); perr != nil {
				markAll(out, knnPos, perr)
			} else {
				for k, i := range knnPos {
					out[i] = Result{Objects: objs[k]}
				}
				e.counts[KindKNN].Add(int64(len(knns)))
				e.batched[KindKNN].Add(int64(len(knns)))
				e.recordAmortised(start, len(knns))
			}
		}
	}
	if batchRange {
		start := e.latStart()
		if ec.canceled() {
			markAll(out, rangePos, ec.cancelErr())
		} else {
			objs := make([][]index.ObjectResult, len(ranges))
			if perr := ec.guard(func() { e.rangeBatcher.RangeBatch(ranges, objs, workers) }); perr != nil {
				markAll(out, rangePos, perr)
			} else {
				for k, i := range rangePos {
					out[i] = Result{Objects: objs[k]}
				}
				e.counts[KindRange].Add(int64(len(ranges)))
				e.batched[KindRange].Add(int64(len(ranges)))
				e.recordAmortised(start, len(ranges))
			}
		}
	}
	runPooled(len(rest), workers, func(k int) {
		i := rest[k]
		out[i] = e.executeOne(ec, queries[i])
	})
}

// markAll writes err into every result addressed by pos — the per-segment
// outcome of a canceled or panicked batched index call. The per-kind
// counters are deliberately not advanced: they count executed queries.
func markAll(out []Result, pos []int32, err error) {
	for _, i := range pos {
		out[i] = Result{Err: err}
	}
}

// latStart returns the segment start time when latency sampling is on.
func (e *Engine) latStart() time.Time {
	if e.lat == nil {
		return time.Time{}
	}
	return time.Now()
}

// recordAmortised records n latency samples of the amortised per-query share
// of the batched segment that started at start. The batch shares work across
// queries, so the amortised share — not the full segment duration — is the
// per-query cost the ring should reflect.
func (e *Engine) recordAmortised(start time.Time, n int) {
	if e.lat == nil || n == 0 {
		return
	}
	per := time.Since(start) / time.Duration(n)
	for i := 0; i < n; i++ {
		e.lat.record(per)
	}
}

// runPooled executes fn(i) for every i in [0, n) over a pool of the given
// width. The calling goroutine participates as one worker, so a pool of
// width w spawns w-1 goroutines — and a width of one (or a single item)
// runs entirely on the caller with no goroutines at all. Items are handed
// out through an atomic cursor; fn must write only item-owned state.
//
// A panic in fn is captured (first one wins), the pool drains, and the
// panic value is re-raised on the calling goroutine — so a recover around
// runPooled observes worker panics exactly like caller panics. Note fn is
// usually executeOne, which already recovers per query in safe mode; the
// re-raise matters for the unguarded ExecuteBatch path and for panics in
// the pool plumbing itself.
func runPooled(n, workers int, fn func(i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		panicked atomic.Bool
		panicVal any
	)
	work := func() {
		defer func() {
			if v := recover(); v != nil && panicked.CompareAndSwap(false, true) {
				panicVal = v
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= n || panicked.Load() {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 0; w < workers-1; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}
