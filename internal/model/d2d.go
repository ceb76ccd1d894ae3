package model

import (
	"math"
	"slices"
	"sync"

	"viptree/internal/graph"
)

// D2DGraph is the door-to-door graph of a venue (Section 1.2.2): each door is
// a vertex, and a weighted edge connects two doors if they belong to the same
// indoor partition, with the weight being the indoor distance between them.
// Outdoor edges (e.g. between building entrances) are added verbatim.
//
// The vertex identifier of door d is int(d). The graph is immutable after
// construction; expansion scratch is pooled, so queries are allocation-free
// on the warm path and safe for concurrent callers.
type D2DGraph struct {
	Graph *graph.Graph
	venue *Venue

	// searchPool recycles the dense Dijkstra scratch of LocationDist and
	// LocationDistsFrom.
	searchPool sync.Pool
}

// buildD2D materialises the D2D graph for v.
func buildD2D(v *Venue) *D2DGraph {
	g := graph.New(len(v.Doors))
	for pi := range v.Partitions {
		p := &v.Partitions[pi]
		for i := 0; i < len(p.Doors); i++ {
			for j := i + 1; j < len(p.Doors); j++ {
				a, b := p.Doors[i], p.Doors[j]
				w := v.IntraPartitionDist(p.ID, a, b)
				g.AddEdge(int(a), int(b), w)
			}
		}
	}
	for _, e := range v.OutdoorEdges {
		g.AddEdge(int(e.From), int(e.To), e.Weight)
	}
	return &D2DGraph{Graph: g, venue: v}
}

// D2D returns the door-to-door graph of the venue. The graph is built once by
// the Builder and shared by all indexes.
func (v *Venue) D2D() *D2DGraph { return v.d2d }

// Dist returns the shortest door-to-door distance between doors a and b using
// Dijkstra's algorithm on the D2D graph. It is the ground-truth distance used
// in tests and by the expansion-based DistAw baseline.
func (d *D2DGraph) Dist(a, b DoorID) float64 {
	return d.Graph.ShortestDist(int(a), int(b))
}

// Path returns the shortest door-to-door path between doors a and b (as door
// IDs) and its length. It returns a nil path if b is unreachable from a.
func (d *D2DGraph) Path(a, b DoorID) (float64, []DoorID) {
	dist, p := d.Graph.ShortestPath(int(a), int(b))
	if p == nil {
		return dist, nil
	}
	doors := make([]DoorID, len(p))
	for i, v := range p {
		doors[i] = DoorID(v)
	}
	return dist, doors
}

// LocationDist computes the exact shortest indoor distance between two
// arbitrary locations by Dijkstra expansion over the D2D graph. It is the
// ground truth against which all indexes are verified, and also the engine
// of the DistAw baseline.
//
// If s and t are in the same partition the distance is the direct
// intra-partition distance (possibly beaten by a path leaving and re-entering
// through doors, which cannot happen with convex partitions, so the direct
// distance is used).
func (d *D2DGraph) LocationDist(s, t Location) float64 {
	v := d.venue
	if s.Partition == t.Partition {
		return directIntraDist(v, s, t)
	}
	// Temporary virtual vertices would complicate the graph; instead run a
	// multi-source expansion seeded with the distances from s to the doors
	// of its partition (a single Dijkstra from a virtual source), and finish
	// once the doors of t's partition are settled.
	sp := v.Partition(s.Partition)
	tp := v.Partition(t.Partition)
	sc := d.getSearch()
	sc.reset(len(v.Doors))
	for _, did := range sp.Doors {
		sc.relax(did, v.DistToDoor(s, did))
	}
	pending := 0
	for _, did := range tp.Doors {
		if sc.markTarget(did) {
			pending++
		}
	}
	for len(sc.heap) > 0 && pending > 0 {
		it := sc.pop()
		if sc.isSettled(it.door) {
			continue
		}
		sc.settle(it.door)
		if sc.isTarget(it.door) {
			pending--
		}
		for _, e := range d.Graph.Neighbors(int(it.door)) {
			sc.relax(DoorID(e.To), it.dist+e.Weight)
		}
	}
	best := graph.Infinity
	for _, did := range tp.Doors {
		if dv, ok := sc.settledDist(did); ok {
			total := dv + v.DistToDoor(t, did)
			if total < best {
				best = total
			}
		}
	}
	d.putSearch(sc)
	return best
}

// LocationDistsFrom computes the distances from s to every location of ts
// with one expansion, writing out[i] for ts[i] (out must be at least as long
// as ts). It runs the very expansion LocationDist runs — same seeds, same
// pops — but marks the doors of every target partition at once and stops
// when all of them are settled, or when the heap top exceeds bound. With
// k > 0 the caller keeps only the k smallest values, and the expansion also
// stops once the heap top exceeds the k-th smallest value found so far.
//
// Every out[i] <= bound, and with k > 0 every out[i] among the k smallest,
// equals LocationDist(s, ts[i]) bit for bit: the settled door distances are
// a prefix of the same deterministic expansion, and any door still
// unsettled when it stops lies beyond the stopping threshold. Any other
// out[i] is a real path length at least the exact distance, and both lie
// beyond the threshold, so a caller pruning at bound, or keeping the k
// smallest, discards them either way. Targets in s's partition get the
// direct intra-partition distance, as in LocationDist. A NaN bound prunes
// nothing.
func (d *D2DGraph) LocationDistsFrom(s Location, ts []Location, bound float64, k int, out []float64) {
	v := d.venue
	sc := d.getSearch()
	sc.reset(len(v.Doors))
	for _, did := range v.Partition(s.Partition).Doors {
		sc.relax(did, v.DistToDoor(s, did))
	}
	// out[i] holds the best value of target i so far; each door of a
	// target partition links to the targets it can finish.
	pending := 0
	sc.links = sc.links[:0]
	for i, t := range ts {
		if t.Partition == s.Partition {
			out[i] = directIntraDist(v, s, t)
			continue
		}
		out[i] = graph.Infinity
		for _, did := range v.Partition(t.Partition).Doors {
			if sc.markTarget(did) {
				pending++
				sc.linkHead[did] = -1
			}
			sc.links = append(sc.links, targetLink{target: int32(i), next: sc.linkHead[did]})
			sc.linkHead[did] = int32(len(sc.links) - 1)
		}
	}
	limit := bound
	if math.IsNaN(limit) {
		limit = math.Inf(1)
	}
	if k > 0 {
		limit = min(limit, sc.kthSmallest(out[:len(ts)], k))
	}
	for len(sc.heap) > 0 && pending > 0 && sc.heap[0].dist <= limit {
		it := sc.pop()
		if sc.isSettled(it.door) {
			continue
		}
		sc.settle(it.door)
		if sc.isTarget(it.door) {
			pending--
			// Only a value dropping below limit can lower the k-th smallest
			// value under limit, so only then is it recomputed.
			lowered := false
			for l := sc.linkHead[it.door]; l >= 0; l = sc.links[l].next {
				i := sc.links[l].target
				if total := it.dist + v.DistToDoor(ts[i], it.door); total < out[i] {
					out[i] = total
					lowered = lowered || total < limit
				}
			}
			if lowered && k > 0 {
				limit = min(limit, sc.kthSmallest(out[:len(ts)], k))
			}
		}
		for _, e := range d.Graph.Neighbors(int(it.door)) {
			sc.relax(DoorID(e.To), it.dist+e.Weight)
		}
	}
	d.putSearch(sc)
}

// LocationPath computes the exact shortest path between two locations as the
// sequence of doors traversed, along with its total length.
func (d *D2DGraph) LocationPath(s, t Location) (float64, []DoorID) {
	v := d.venue
	if s.Partition == t.Partition {
		return directIntraDist(v, s, t), nil
	}
	sp := v.Partition(s.Partition)
	tp := v.Partition(t.Partition)
	best := graph.Infinity
	var bestPath []DoorID
	for _, sd := range sp.Doors {
		dists, prev := d.Graph.ToTargets(int(sd), doorsToInts(tp.Doors))
		for _, td := range tp.Doors {
			dv := dists[int(td)]
			if dv == graph.Infinity {
				continue
			}
			total := v.DistToDoor(s, sd) + dv + v.DistToDoor(t, td)
			if total < best {
				best = total
				p := graph.PathOnPrev(prev, int(sd), int(td))
				bestPath = intsToDoors(p)
			}
		}
	}
	return best, bestPath
}

// d2dSearch is the reusable dense scratch of one LocationDist or
// LocationDistsFrom expansion: a multi-source Dijkstra over door IDs (which
// are contiguous ordinals into Venue.Doors). Presence is tracked with epoch
// stamps so reset is O(1), and the heap and link backing arrays are kept
// across queries, making a warm expansion allocation-free.
type d2dSearch struct {
	dist []float64
	// reachedAt/settledAt/targetAt mark per-door state for the current
	// epoch: a door is reached/settled/a-target only if its stamp equals
	// the current epoch.
	reachedAt []uint32
	settledAt []uint32
	targetAt  []uint32
	epoch     uint32
	heap      []d2dQItem
	// linkHead[d] heads the list, threaded through links, of the
	// LocationDistsFrom targets whose partition has door d; valid when d
	// is a target of the current epoch.
	linkHead []int32
	links    []targetLink
	// sel is the selection scratch of kthSmallest.
	sel []float64
}

// targetLink is one (target, door) incidence of a LocationDistsFrom call.
type targetLink struct {
	target int32
	next   int32
}

// kthSmallest returns the k-th smallest of vs (k >= 1), or +Inf when vs
// has fewer than k values.
func (sc *d2dSearch) kthSmallest(vs []float64, k int) float64 {
	if k > len(vs) {
		return math.Inf(1)
	}
	sc.sel = append(sc.sel[:0], vs...)
	slices.Sort(sc.sel)
	return sc.sel[k-1]
}

type d2dQItem struct {
	door DoorID
	dist float64
}

func (sc *d2dSearch) reset(n int) {
	if len(sc.dist) < n {
		sc.dist = make([]float64, n)
		sc.reachedAt = make([]uint32, n)
		sc.settledAt = make([]uint32, n)
		sc.targetAt = make([]uint32, n)
		sc.linkHead = make([]int32, n)
		sc.epoch = 1
	} else {
		sc.epoch++
		if sc.epoch == 0 { // epoch wrapped: clear the stamps and restart
			for i := range sc.reachedAt {
				sc.reachedAt[i] = 0
				sc.settledAt[i] = 0
				sc.targetAt[i] = 0
			}
			sc.epoch = 1
		}
	}
	sc.heap = sc.heap[:0]
}

// relax records a candidate distance to door d, pushing it on the heap when
// it improves the best known distance.
func (sc *d2dSearch) relax(d DoorID, dist float64) {
	if sc.settledAt[d] == sc.epoch {
		return
	}
	if sc.reachedAt[d] == sc.epoch && sc.dist[d] <= dist {
		return
	}
	sc.reachedAt[d] = sc.epoch
	sc.dist[d] = dist
	sc.push(d2dQItem{door: d, dist: dist})
}

func (sc *d2dSearch) settle(d DoorID)         { sc.settledAt[d] = sc.epoch }
func (sc *d2dSearch) isSettled(d DoorID) bool { return sc.settledAt[d] == sc.epoch }
func (sc *d2dSearch) isTarget(d DoorID) bool  { return sc.targetAt[d] == sc.epoch }

// markTarget marks d as a pending target, reporting whether it was new.
func (sc *d2dSearch) markTarget(d DoorID) bool {
	if sc.targetAt[d] == sc.epoch {
		return false
	}
	sc.targetAt[d] = sc.epoch
	return true
}

// settledDist returns the settled distance of door d, if the expansion
// reached it.
func (sc *d2dSearch) settledDist(d DoorID) (float64, bool) {
	if sc.settledAt[d] != sc.epoch {
		return graph.Infinity, false
	}
	return sc.dist[d], true
}

func (sc *d2dSearch) push(it d2dQItem) {
	sc.heap = append(sc.heap, it)
	h := sc.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (sc *d2dSearch) pop() d2dQItem {
	h := sc.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	sc.heap = h[:last]
	h = sc.heap
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		small := l
		if r := l + 1; r < len(h) && h[r].dist < h[l].dist {
			small = r
		}
		if h[i].dist <= h[small].dist {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

func (d *D2DGraph) getSearch() *d2dSearch {
	sc, _ := d.searchPool.Get().(*d2dSearch)
	if sc == nil {
		sc = &d2dSearch{}
	}
	return sc
}

func (d *D2DGraph) putSearch(sc *d2dSearch) { d.searchPool.Put(sc) }

// directIntraDist is the walking distance between two locations in the same
// partition.
func directIntraDist(v *Venue, s, t Location) float64 {
	p := v.Partition(s.Partition)
	if p.TraversalCost > 0 {
		return p.TraversalCost
	}
	return s.Point.PlanarDist(t.Point)
}

func doorsToInts(ds []DoorID) []int {
	out := make([]int, len(ds))
	for i, d := range ds {
		out[i] = int(d)
	}
	return out
}

func intsToDoors(vs []int) []DoorID {
	out := make([]DoorID, len(vs))
	for i, v := range vs {
		out[i] = DoorID(v)
	}
	return out
}
