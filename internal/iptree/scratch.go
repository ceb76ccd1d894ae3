package iptree

import (
	"viptree/internal/index"
	"viptree/internal/model"
)

// This file implements the allocation-free scratch state used by the query
// hot paths. Door IDs are dense ordinals assigned at build time (model.DoorID
// is a contiguous index into Venue.Doors), so per-query distance tables are
// plain slices indexed by door ID instead of map[model.DoorID] scratch maps.
// Tables are reset in O(1) with an epoch counter and recycled across queries
// through sync.Pool, making the warm VIP-Tree Distance path allocation-free
// and safe for concurrent callers.

// doorTable is a dense map from door ID to (distance, via-door), reset in
// O(1) through an epoch-stamped membership set (see epochStamps in
// buildscratch.go): an entry is present only when its door is stamped.
type doorTable struct {
	dist []float64
	via  []model.DoorID
	seen epochStamps
}

// reset prepares the table for a venue with n doors, invalidating all
// entries. It allocates only on first use (or if the venue grew).
func (dt *doorTable) reset(n int) {
	if len(dt.dist) < n {
		dt.dist = make([]float64, n)
		dt.via = make([]model.DoorID, n)
	}
	dt.seen.reset(n)
}

// has reports whether door d has an entry in the current epoch.
func (dt *doorTable) has(d model.DoorID) bool { return dt.seen.has(int(d)) }

// get returns the recorded distance to door d and whether one exists.
func (dt *doorTable) get(d model.DoorID) (float64, bool) {
	if !dt.seen.has(int(d)) {
		return Infinite, false
	}
	return dt.dist[d], true
}

// set records the distance and via-door for door d in the current epoch.
func (dt *doorTable) set(d model.DoorID, dist float64, via model.DoorID) {
	dt.dist[d] = dist
	dt.via[d] = via
	dt.seen.mark(int(d))
}

// viaOf returns the recorded via-door of d, or NoDoor when d has no entry.
func (dt *doorTable) viaOf(d model.DoorID) model.DoorID {
	if !dt.seen.has(int(d)) {
		return NoDoor
	}
	return dt.via[d]
}

// combineScratch holds the compact gather buffers of the branch-light
// combine sweeps used by the batched distance path (batch.go). Each sweep
// first gathers its valid (distance, matrix position, door) triples —
// dropping missing positions, absent table entries and unreachable bases
// once, up front — and then runs a tight row-major min-reduction over the
// compacted arrays whose only data-dependent branch is the min update
// itself. Unreachable matrix cells need no test inside the sweep: Infinite
// is math.MaxFloat64, so a candidate through one can never win a strict <
// against a best that starts at Infinite. The gather only pays for itself
// when shared — a batch group reuses one gather across every query (and, in
// the multi-source climb, across every source); the single-query loops keep
// their in-place skipping form, which measures faster at the paper's small
// access-door counts.
type combineScratch struct {
	// Gathered sources: finite base distances, their matrix row positions
	// and their door IDs (the via door a win is recorded under).
	base  []float64
	rows  []int32
	doors []model.DoorID
	// Gathered destinations: matrix column positions, door IDs and the
	// ordinal of each destination in the node's access-door list.
	cols   []int32
	dsts   []model.DoorID
	dstIdx []int32
	// Per-destination running minima and winning via doors.
	best []float64
	via  []model.DoorID
}

// prepareBest sizes best/via for the gathered destinations, initialising
// every running minimum to unreachable. via needs no initialisation: it is
// only consulted for destinations whose best is finite, and the sweep writes
// the via door on every best update. Callers gather cols/dsts/dstIdx and
// base/rows/doors with plain appends on local slice headers (which the
// compiler keeps in registers) rather than through helper methods.
func (cb *combineScratch) prepareBest() {
	n := len(cb.cols)
	if cap(cb.best) < n {
		cb.best = make([]float64, n)
		cb.via = make([]model.DoorID, n)
	}
	cb.best = cb.best[:n]
	cb.via = cb.via[:n]
	for j := range cb.best {
		cb.best[j] = Infinite
	}
}

// sweep runs the min-reduction: for every gathered source k and destination
// j it offers base[k] + mat[rows[k]][cols[j]] with via doors[k], walking the
// matrix slab row-major. Sources are offered in gather order, so with the
// strict < update the first minimal source wins — the same winner the
// skipping loops it replaces selected.
func (cb *combineScratch) sweep(mat *Matrix) {
	stride := len(mat.cols)
	slab := mat.dist
	cols, best, via := cb.cols, cb.best, cb.via
	for k := range cb.base {
		row := slab[int(cb.rows[k])*stride:]
		b := cb.base[k]
		d := cb.doors[k]
		for j, cj := range cols {
			if c := b + row[cj]; c < best[j] {
				best[j] = c
				via[j] = d
			}
		}
	}
}

// pathScratch holds the reusable buffers of one shortest-path expansion:
// the partial via-door skeleton, the expanded door sequence, the
// target-side segment of the VIP expansion, and the explicit work stack of
// the iterative Algorithm 4. All four are grown once and recycled, so a
// warm Path query allocates only its returned result slice.
type pathScratch struct {
	partial []model.DoorID
	out     []model.DoorID
	tmp     []model.DoorID
	stack   []doorPair
}

// distScratch is the reusable state of one IP-Tree distance/path query: the
// two Algorithm-2 runs (source side and target side) plus the path buffers.
type distScratch struct {
	src, dst sourceDists
	path     pathScratch
}

// getDistScratch fetches a scratch from the tree's pool (allocating one only
// when the pool is empty).
func (t *Tree) getDistScratch() *distScratch {
	sc, _ := t.distPool.Get().(*distScratch)
	if sc == nil {
		sc = &distScratch{}
	}
	return sc
}

// putDistScratch returns the scratch to the pool for reuse.
func (t *Tree) putDistScratch(sc *distScratch) { t.distPool.Put(sc) }

// vipSide holds the per-side result of a VIP distance query, aligned with
// the access doors of the LCA child on that side: dist[i] is the distance
// from the query location to AccessDoors[i] (Infinite when unreachable) and
// via[i] the superior door of the location's partition achieving it.
type vipSide struct {
	node  NodeID
	doors []model.DoorID // the node's access doors (shared, not copied)
	dist  []float64
	via   []model.DoorID
}

// resize prepares the side for a node with n access doors, reusing the
// backing arrays whenever they are large enough.
func (s *vipSide) resize(n int) {
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.via = make([]model.DoorID, n)
	}
	s.dist = s.dist[:n]
	s.via = s.via[:n]
}

// vipScratch is the reusable state of one VIP-Tree distance/path query.
type vipScratch struct {
	s, d vipSide
	path pathScratch
}

func (vt *VIPTree) getVIPScratch() *vipScratch {
	sc, _ := vt.vipPool.Get().(*vipScratch)
	if sc == nil {
		sc = &vipScratch{}
	}
	return sc
}

func (vt *VIPTree) putVIPScratch(sc *vipScratch) { vt.vipPool.Put(sc) }

// nodeDistTable caches, per tree node, the distances from the query location
// to the node's access doors (aligned with Node.AccessDoors) — the nodeDists
// working set of Algorithm 5. The per-node slices are reset by epoch and
// their backing arrays recycled across queries, so a warm kNN/Range query
// never reallocates them.
type nodeDistTable struct {
	vals [][]float64
	seen epochStamps
}

// reset prepares the table for a tree with n nodes, invalidating all entries.
func (nt *nodeDistTable) reset(n int) {
	if len(nt.vals) < n {
		nt.vals = make([][]float64, n)
	}
	nt.seen.reset(n)
}

// get returns the cached access-door distances of node n, if present.
func (nt *nodeDistTable) get(n NodeID) ([]float64, bool) {
	if !nt.seen.has(int(n)) {
		return nil, false
	}
	return nt.vals[n], true
}

// put stamps node n and returns its distance slice resized to size, reusing
// the backing array from earlier queries whenever it is large enough.
func (nt *nodeDistTable) put(n NodeID, size int) []float64 {
	s := nt.vals[n]
	if cap(s) < size {
		s = make([]float64, size)
	}
	s = s[:size]
	nt.vals[n] = s
	nt.seen.mark(int(n))
	return s
}

// objScratch is the reusable state of one kNN/Range traversal (Algorithm 5):
// the per-node access-door distance cache, the best-first priority queue, the
// per-object best distances of leaf scans and the result accumulator. It is
// recycled through the object index's pool, keeping the warm query path down
// to a single allocation (the returned result slice).
type objScratch struct {
	nodes nodeDistTable
	heap  []queuedNode
	// objDist[id] records the best distance to object id seen by the current
	// leaf scan; entries are valid when id is in the objSeen stamped set.
	objDist []float64
	objSeen epochStamps
	results []index.ObjectResult
	// leafDists receives the distances from q to the objects of q's own
	// leaf, aligned with that leaf's locs.
	leafDists []float64
	// cmBase/cmRows are the compact (finite base distance, matrix row) pairs
	// gathered once per childMinDist call, replacing the per-door refilter
	// of the combination loop.
	cmBase []float64
	cmRows []int32
}

// bumpObjEpoch starts a fresh per-object marking generation for a set of n
// objects (one generation per scanned leaf).
func (sc *objScratch) bumpObjEpoch(n int) {
	if len(sc.objDist) < n {
		sc.objDist = make([]float64, n)
	}
	sc.objSeen.reset(n)
}

func (oi *ObjectIndex) getObjScratch() *objScratch {
	sc, _ := oi.scratchPool.Get().(*objScratch)
	if sc == nil {
		sc = &objScratch{}
	}
	return sc
}

func (oi *ObjectIndex) putObjScratch(sc *objScratch) { oi.scratchPool.Put(sc) }
