package iptree

import (
	"sync"
	"time"

	"viptree/internal/model"
)

// This file implements the Vivid IP-Tree (Section 2.2 and Sections 3.1.2 and
// 3.3): an IP-Tree that additionally materialises, for every door, the
// distance and next-hop door to every access door of every ancestor of the
// leaves containing that door. Shortest-distance queries then cost O(ρ²)
// because the upward climb of Algorithm 2 is replaced by direct lookups.

// vipEntry is the materialised information for one (door, ancestor access
// door) pair: the shortest distance and the first door on that shortest path
// (NoDoor if the path contains no other door).
type vipEntry struct {
	dist float64
	next model.DoorID
}

// doorEntries holds the materialised ancestor information of a single door:
// for each ancestor node (of a leaf containing the door), one vipEntry per
// access door of that node, aligned with Node.AccessDoors. The node list is
// short (O(height)), so lookups scan it linearly without allocating.
type doorEntries struct {
	nodes   []NodeID
	perNode [][]vipEntry
}

// forNode returns the entries for the given ancestor node, or nil.
func (de *doorEntries) forNode(n NodeID) []vipEntry {
	for i, id := range de.nodes {
		if id == n {
			return de.perNode[i]
		}
	}
	return nil
}

// VIPTree is a VIP-Tree: an IP-Tree plus the per-door materialised distances.
type VIPTree struct {
	*Tree
	// vpk is the arena form of the per-door materialised entries (arena.go):
	// one int32 slab of ancestor node lists, one float64 slab of distances
	// and one int32 slab of first-door IDs, indexed by per-door offsets. It
	// is the only representation public constructors leave behind.
	vpk *vipPacked
	// entries[d] holds the materialised ancestor entries of door d in the
	// transient per-door form; non-nil only on the unpacked intermediate
	// state (exercised directly by pack_test.go).
	entries []doorEntries
	// vipPool recycles per-query scratch, keeping the warm Distance path
	// allocation-free and safe for concurrent callers.
	vipPool sync.Pool
}

// BuildVIPTree constructs a VIP-Tree over the venue.
func BuildVIPTree(v *model.Venue, opts Options) (*VIPTree, error) {
	t, err := BuildIPTree(v, opts)
	if err != nil {
		return nil, err
	}
	return NewVIPTree(t), nil
}

// MustBuildVIPTree is BuildVIPTree but panics on error.
func MustBuildVIPTree(v *model.Venue, opts Options) *VIPTree {
	vt, err := BuildVIPTree(v, opts)
	if err != nil {
		panic(err)
	}
	return vt
}

// NewVIPTree materialises the per-door ancestor distances on top of an
// existing IP-Tree. The IP-Tree is shared, not copied. Every door's entries
// depend only on the (read-only) tree, so the per-door loop fans out over a
// worker pool (Options.Parallelism) with bit-identical results at any
// parallelism. The materialised tables are frozen into the VIP arena
// (arena.go) before the tree is returned.
func NewVIPTree(t *Tree) *VIPTree {
	vt := newVIPTreeUnpacked(t)
	vt.packVIP(vt.entries)
	vt.entries = nil
	return vt
}

// newVIPTreeUnpacked materialises the per-door tables without the final
// packVIP step; it exists for the packing property tests.
func newVIPTreeUnpacked(t *Tree) *VIPTree {
	start := time.Now()
	numDoors := t.venue.NumDoors()
	vt := &VIPTree{Tree: t, entries: make([]doorEntries, numDoors)}
	workers := min(t.opts.workers(), numDoors)
	scratches := make([]vipScratchBuild, max(workers, 1))
	runParallel(numDoors, workers, func(w, i int) {
		vt.materialiseDoor(model.DoorID(i), &scratches[w])
	})
	t.timings.VIPMaterialise = time.Since(start)
	return vt
}

// Name implements index.DistanceQuerier.
func (vt *VIPTree) Name() string { return "VIP-Tree" }

// materialiseDoor computes the VIP entries of a single door by climbing the
// tree from every leaf containing it, exactly like Algorithm 2 but with the
// door itself as the source. The distance/via working set is the worker's
// dense epoch-stamped door table (no per-door maps); only the flattened
// per-door entry slices consumed by the query hot path are allocated.
func (vt *VIPTree) materialiseDoor(d model.DoorID, sc *vipScratchBuild) {
	t := vt.Tree
	sc.reset(t.venue.NumDoors(), len(t.nodes))
	tab := &sc.tab

	seedLeaf := func(leaf NodeID) {
		// Seed with the leaf matrix distances from d to the leaf's access
		// doors (d is a row of every matrix of a leaf containing it, so its
		// row position is resolved once and the columns swept positionally).
		mat := t.nodes[leaf].Matrix
		if ri, ok := mat.rowIndexOf(d); ok {
			for _, a := range t.nodes[leaf].AccessDoors {
				ci, ok := mat.colIndexOf(a)
				if !ok {
					continue
				}
				md := mat.distAt(ri, ci)
				if md == Infinite {
					continue
				}
				if cur, ok := tab.get(a); !ok || md < cur {
					if a == d {
						tab.set(a, md, NoDoor)
					} else {
						tab.set(a, md, d)
					}
				}
			}
		}
		for cur := leaf; cur != invalidNode; cur = t.nodes[cur].Parent {
			sc.climb = append(sc.climb, cur)
		}
	}
	if t.pk != nil {
		for _, leaf := range t.pk.leavesOfDoor.of(d) {
			seedLeaf(NodeID(leaf))
		}
	} else {
		for _, leaf := range t.leavesOfDoor[d] {
			seedLeaf(leaf)
		}
	}
	// Propagate upwards along every climb path (deduplicating nodes).
	for _, n := range sc.climb {
		if !sc.nodeSeen.has(int(n)) {
			sc.nodeSeen.mark(int(n))
			sc.order = append(sc.order, n)
		}
	}
	// Process in increasing level so children are handled before parents.
	sortNodesByLevel(t, sc.order)
	for _, n := range sc.order {
		node := &t.nodes[n]
		if node.IsLeaf() {
			continue
		}
		// Resolve the matrix row of every child access door once per node;
		// the propagation loop below then reads entries positionally. Doors
		// without a row would contribute only Infinite entries and are
		// dropped up front.
		sc.propDoors = sc.propDoors[:0]
		sc.propRows = sc.propRows[:0]
		for _, c := range node.Children {
			for _, di := range t.nodes[c].AccessDoors {
				if ri, ok := node.Matrix.rowIndexOf(di); ok {
					sc.propDoors = append(sc.propDoors, di)
					sc.propRows = append(sc.propRows, int32(ri))
				}
			}
		}
		// Propagate from whichever children already have distances.
		for _, dAccess := range node.AccessDoors {
			best, bestVia := Infinite, NoDoor
			if cur, ok := tab.get(dAccess); ok {
				best = cur
				bestVia = tab.viaOf(dAccess)
			}
			if ci, ok := node.Matrix.colIndexOf(dAccess); ok {
				for k, di := range sc.propDoors {
					base, ok := tab.get(di)
					if !ok {
						continue
					}
					md := node.Matrix.distAt(int(sc.propRows[k]), ci)
					if md == Infinite {
						continue
					}
					if base+md < best {
						best = base + md
						if di == dAccess {
							bestVia = tab.viaOf(di)
						} else {
							bestVia = di
						}
					}
				}
			}
			if best < Infinite {
				tab.set(dAccess, best, bestVia)
			}
		}
	}
	// Record entries for every ancestor node: distance plus the literal
	// first door on the path (computed by decomposing the first hop of the
	// via chain).
	de := doorEntries{
		nodes:   make([]NodeID, 0, len(sc.order)),
		perNode: make([][]vipEntry, 0, len(sc.order)),
	}
	for _, n := range sc.order {
		node := &t.nodes[n]
		es := make([]vipEntry, len(node.AccessDoors))
		for i, a := range node.AccessDoors {
			dv, ok := tab.get(a)
			if !ok {
				es[i] = vipEntry{dist: Infinite, next: NoDoor}
				continue
			}
			es[i] = vipEntry{dist: dv, next: vt.firstDoorOnPath(d, a, tab)}
		}
		de.nodes = append(de.nodes, n)
		de.perNode = append(de.perNode, es)
	}
	vt.entries[d] = de
}

// sortNodesByLevel orders node IDs by increasing level (stable by ID).
func sortNodesByLevel(t *Tree, nodes []NodeID) {
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0; j-- {
			a, b := nodes[j-1], nodes[j]
			if t.nodes[a].Level > t.nodes[b].Level ||
				(t.nodes[a].Level == t.nodes[b].Level && a > b) {
				nodes[j-1], nodes[j] = nodes[j], nodes[j-1]
			} else {
				break
			}
		}
	}
}

// firstDoorOnPath returns the first door after src on the shortest path from
// src to target, following the via chain recorded during materialisation and
// decomposing the first partial edge with the distance matrices.
func (vt *VIPTree) firstDoorOnPath(src, target model.DoorID, tab *doorTable) model.DoorID {
	if src == target {
		return NoDoor
	}
	// Unwind the via chain from target back towards src; the element closest
	// to src on the chain is the first partial hop.
	first := target
	for cur := target; cur != NoDoor; {
		if !tab.has(cur) {
			first = cur
			break
		}
		prev := tab.viaOf(cur)
		if prev == NoDoor || prev == src {
			first = cur
			break
		}
		first = cur
		cur = prev
	}
	return vt.firstDoorOfEdge(src, first, maxDecompose)
}

// firstDoorOfEdge returns the first door after a on the shortest path from a
// to b by repeatedly consulting the matrices' next-hop entries.
func (vt *VIPTree) firstDoorOfEdge(a, b model.DoorID, budget int) model.DoorID {
	t := vt.Tree
	for budget > 0 {
		budget--
		if a == b {
			return NoDoor
		}
		if !t.doorIsAccess(a) && !t.doorIsAccess(b) {
			return b
		}
		mat, row, col, ok := t.decompositionEntry(a, b)
		if !ok {
			break
		}
		next := mat.nextAt(row, col)
		if next == NoDoor {
			return b
		}
		if next == a || next == b {
			break
		}
		b = next
	}
	// Fallback: resolve with a plain graph search (rare).
	_, doors := t.venue.D2D().Path(a, b)
	if len(doors) >= 2 {
		return doors[1]
	}
	return b
}

// entriesFor returns the materialised entries of door d towards the access
// doors of `node` (aligned with Node.AccessDoors), or nil when the node is
// not an ancestor of a leaf containing d. Unpacked trees only; the packed
// hot paths use entriesOffset.
func (vt *VIPTree) entriesFor(d model.DoorID, node NodeID) []vipEntry {
	return vt.entries[d].forNode(node)
}

// entriesOffset returns the slab offset of the materialised entries of door
// d towards the access doors of `node` (the block vpk.dist[off:off+|AD|],
// aligned with Node.AccessDoors), walking the door's short ancestor list.
func (vt *VIPTree) entriesOffset(d model.DoorID, node NodeID) (int, bool) {
	pk := vt.vpk
	off := int(pk.entryOff[d])
	for _, id := range pk.nodes[pk.nodesOff[d]:pk.nodesOff[d+1]] {
		if NodeID(id) == node {
			return off, true
		}
		off += len(vt.nodes[id].AccessDoors)
	}
	return 0, false
}

// entryFor returns the materialised entry for door d towards the access door
// at position ti of `node`'s access doors, if present.
func (vt *VIPTree) entryFor(d model.DoorID, node NodeID, ti int) (vipEntry, bool) {
	if vt.vpk != nil {
		off, ok := vt.entriesOffset(d, node)
		if !ok {
			return vipEntry{}, false
		}
		return vipEntry{dist: vt.vpk.dist[off+ti], next: model.DoorID(vt.vpk.next[off+ti])}, true
	}
	es := vt.entriesFor(d, node)
	if es == nil {
		return vipEntry{}, false
	}
	return es[ti], true
}

// Distance implements the VIP-Tree shortest-distance query (Section 3.1.2):
// O(ρ²) lookups via the superior doors of the two partitions and the
// materialised distances to the LCA children's access doors. The warm path
// performs no allocations; scratch is recycled through a pool, so the method
// is safe for concurrent callers.
func (vt *VIPTree) Distance(s, d model.Location) float64 {
	sc := vt.getVIPScratch()
	res := vt.vipQuery(s, d, sc)
	vt.putVIPScratch(sc)
	return res.dist
}

// vipResult is the outcome of one VIP distance computation. When cross is
// true the query crossed leaves and the pair/sup/node fields identify the
// optimal skeleton used by Path; the side data lives in the query scratch.
type vipResult struct {
	dist  float64
	cross bool
	// pair is the pair of LCA-children access doors realising the minimum.
	pair [2]model.DoorID
	// supS, supD are the superior doors of the source and target partitions
	// through which the optimal pair is reached.
	supS, supD model.DoorID
	// nodeS, nodeD are the LCA children on the source and target sides.
	nodeS, nodeD NodeID
}

// vipQuery computes the shortest distance between s and d using the
// materialised entries, writing per-side scratch into sc and tracking the
// optimal path skeleton.
func (vt *VIPTree) vipQuery(s, d model.Location, sc *vipScratch) vipResult {
	t := vt.Tree
	if s.Partition == d.Partition {
		return vipResult{dist: directIntraPartition(t.venue, s, d)}
	}
	leafS := t.Leaf(s.Partition)
	leafD := t.Leaf(d.Partition)
	if leafS == leafD {
		// Same leaf: the exact D2D expansion, as in distanceInternal (~400
		// µs per call on Men full; the materialised entries do not help).
		return vipResult{dist: t.venue.D2D().LocationDist(s, d)}
	}
	lca := t.LCA(leafS, leafD)
	ns := t.ChildToward(lca, leafS)
	nt := t.ChildToward(lca, leafD)
	vt.sideDistances(s, ns, &sc.s)
	vt.sideDistances(d, nt, &sc.d)
	mat := t.nodes[lca].Matrix
	res := vipResult{dist: Infinite, cross: true, nodeS: ns, nodeD: nt,
		pair: [2]model.DoorID{NoDoor, NoDoor}, supS: NoDoor, supD: NoDoor}
	if t.pk != nil {
		// Packed: the positions of both children's access doors among the
		// LCA matrix rows/columns are precomputed, so the double loop sweeps
		// the matrix slab positionally — no door lookups.
		rowS := t.pk.adPosInParent[ns]
		colD := t.pk.adPosInParent[nt]
		for i, di := range sc.s.doors {
			ds := sc.s.dist[i]
			if ds == Infinite || rowS[i] < 0 {
				continue
			}
			for j, dj := range sc.d.doors {
				dd := sc.d.dist[j]
				if dd == Infinite || colD[j] < 0 {
					continue
				}
				md := mat.distAt(int(rowS[i]), int(colD[j]))
				if md == Infinite {
					continue
				}
				if total := ds + md + dd; total < res.dist {
					res.dist = total
					res.pair = [2]model.DoorID{di, dj}
					res.supS = sc.s.via[i]
					res.supD = sc.d.via[j]
				}
			}
		}
		return res
	}
	for i, di := range sc.s.doors {
		ds := sc.s.dist[i]
		if ds == Infinite {
			continue
		}
		for j, dj := range sc.d.doors {
			dd := sc.d.dist[j]
			if dd == Infinite {
				continue
			}
			md := mat.Dist(di, dj)
			if md == Infinite {
				continue
			}
			if total := ds + md + dd; total < res.dist {
				res.dist = total
				res.pair = [2]model.DoorID{di, dj}
				res.supS = sc.s.via[i]
				res.supD = sc.d.via[j]
			}
		}
	}
	return res
}

// sideDistances computes dist(loc, a) for every access door a of `node` (an
// ancestor of the location's leaf) using only the superior doors of the
// location's partition and the materialised per-door distances — the
// modified Algorithm 2 of Section 3.1.2. Results are written into side,
// aligned with the node's access doors.
func (vt *VIPTree) sideDistances(loc model.Location, node NodeID, side *vipSide) {
	t := vt.Tree
	v := t.venue
	ads := t.nodes[node].AccessDoors
	side.node = node
	side.doors = ads
	side.resize(len(ads))
	for i := range side.dist {
		side.dist[i] = Infinite
		side.via[i] = NoDoor
	}
	sup := t.SuperiorDoors(loc.Partition)
	if vt.vpk != nil {
		// Packed: each superior door's entry block for this node is one
		// contiguous stretch of the distance slab, scanned sequentially.
		dists := vt.vpk.dist
		for _, sdoor := range sup {
			base := v.DistToDoor(loc, sdoor)
			off, hasEntries := vt.entriesOffset(sdoor, node)
			for i, a := range ads {
				var md float64
				switch {
				case sdoor == a:
					md = 0
				case hasEntries:
					md = dists[off+i]
				default:
					md = Infinite
				}
				if md == Infinite {
					continue
				}
				if base+md < side.dist[i] {
					side.dist[i] = base + md
					side.via[i] = sdoor
				}
			}
		}
		return
	}
	for _, sdoor := range sup {
		base := v.DistToDoor(loc, sdoor)
		es := vt.entriesFor(sdoor, node)
		for i, a := range ads {
			var md float64
			switch {
			case sdoor == a:
				md = 0
			case es != nil:
				md = es[i].dist
			default:
				md = Infinite
			}
			if md == Infinite {
				continue
			}
			if base+md < side.dist[i] {
				side.dist[i] = base + md
				side.via[i] = sdoor
			}
		}
	}
}

// sideDistsOnly is the distance-only form of sideDistances used by the
// batched Distance path, where one side is computed once per distinct
// endpoint and shared by every query in its group, and via doors are not
// needed (batched queries return distances, not paths). dist must be
// len(AccessDoors(node)) long.
func (vt *VIPTree) sideDistsOnly(loc model.Location, node NodeID, dist []float64) {
	t := vt.Tree
	v := t.venue
	ads := t.nodes[node].AccessDoors
	for i := range dist {
		dist[i] = Infinite
	}
	sup := t.SuperiorDoors(loc.Partition)
	if vt.vpk != nil {
		dists := vt.vpk.dist
		for _, sdoor := range sup {
			base := v.DistToDoor(loc, sdoor)
			off, hasEntries := vt.entriesOffset(sdoor, node)
			for i, a := range ads {
				var md float64
				switch {
				case sdoor == a:
					md = 0
				case hasEntries:
					md = dists[off+i]
				default:
					md = Infinite
				}
				if md == Infinite {
					continue
				}
				if base+md < dist[i] {
					dist[i] = base + md
				}
			}
		}
		return
	}
	for _, sdoor := range sup {
		base := v.DistToDoor(loc, sdoor)
		es := vt.entriesFor(sdoor, node)
		for i, a := range ads {
			var md float64
			switch {
			case sdoor == a:
				md = 0
			case es != nil:
				md = es[i].dist
			default:
				md = Infinite
			}
			if md == Infinite {
				continue
			}
			if base+md < dist[i] {
				dist[i] = base + md
			}
		}
	}
}

// Path implements the VIP-Tree shortest-path query (Section 3.3): the
// distance computation identifies the superior doors and LCA access doors on
// the optimal path, the materialised next-hop doors expand the segments
// between a door and an ancestor access door, and Algorithm 4 expands the
// segment across the LCA. Like the IP-Tree Path, the expansion runs on
// pooled scratch and allocates only the returned slice.
func (vt *VIPTree) Path(s, d model.Location) (float64, []model.DoorID) {
	t := vt.Tree
	sc := vt.getVIPScratch()
	res := vt.vipQuery(s, d, sc)
	if res.dist == Infinite {
		vt.putVIPScratch(sc)
		return res.dist, nil
	}
	if !res.cross {
		vt.putVIPScratch(sc)
		if s.Partition == d.Partition {
			return res.dist, nil
		}
		pd, doors := t.venue.D2D().LocationPath(s, d)
		return pd, doors
	}
	ps := &sc.path
	out := vt.expandToAncestorDoorInto(res.supS, res.nodeS, res.pair[0], ps.out[:0], ps)
	out = t.expandEdgeInto(res.pair[0], res.pair[1], out, ps)
	back := vt.expandToAncestorDoorInto(res.supD, res.nodeD, res.pair[1], ps.tmp[:0], ps)
	ps.tmp = back
	for i := len(back) - 2; i >= 0; i-- {
		out = append(out, back[i])
	}
	out = dedupConsecutive(out)
	ps.out = out
	result := make([]model.DoorID, len(out))
	copy(result, out)
	vt.putVIPScratch(sc)
	return res.dist, result
}

// expandToAncestorDoorInto appends the full door sequence from door `from`
// to access door `target` of ancestor node `node` (inclusive of both ends)
// to buf, by repeatedly following the materialised next-hop doors. The
// target's position among the node's access doors is resolved once up
// front, so on a packed tree every hop is a direct read of the door's entry
// block — no per-step scan of the access-door list. Missing entries fall
// back to Algorithm 4.
func (vt *VIPTree) expandToAncestorDoorInto(from model.DoorID, node NodeID, target model.DoorID, buf []model.DoorID, ps *pathScratch) []model.DoorID {
	t := vt.Tree
	ti := -1
	for i, a := range t.nodes[node].AccessDoors {
		if a == target {
			ti = i
			break
		}
	}
	buf = append(buf, from)
	cur := from
	for step := 0; cur != target && step < maxDecompose; step++ {
		var e vipEntry
		ok := ti >= 0
		if ok {
			e, ok = vt.entryFor(cur, node, ti)
		}
		if !ok {
			// The current door has no materialised entry for this ancestor
			// (the path strayed outside the node); finish with Algorithm 4.
			return t.expandEdgeInto(cur, target, buf, ps)
		}
		next := e.next
		if next == NoDoor {
			next = target
		}
		if next == cur {
			break
		}
		buf = append(buf, next)
		cur = next
	}
	if cur != target {
		buf = t.expandEdgeInto(cur, target, buf, ps)
	}
	return buf
}

// MemoryBytes reports the memory of the VIP-Tree: the underlying IP-Tree
// plus the materialised per-door tables — arena-exact slab sizes when
// packed, the per-door struct estimate otherwise.
func (vt *VIPTree) MemoryBytes() int64 {
	total := vt.Tree.MemoryBytes()
	if vt.vpk != nil {
		return total + vt.vpk.arenaBytes()
	}
	for d := range vt.entries {
		de := &vt.entries[d]
		total += int64(len(de.nodes))*sizeofNodeID + 2*sizeofSliceHeader
		for _, es := range de.perNode {
			total += int64(len(es))*int64(8+sizeofDoorID) + sizeofSliceHeader
		}
	}
	return total
}
