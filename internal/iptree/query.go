package iptree

import (
	"viptree/internal/model"
)

// This file implements the shortest-distance machinery of Section 3.1:
// Algorithm 2 (distances from a location to all access doors of an ancestor
// node) and Algorithm 3 (shortest distance between two arbitrary locations).

// sourceDists holds the result of Algorithm 2 for one query location: the
// distance from the location to every access door encountered while climbing
// from its leaf towards an ancestor node, plus the door through which each
// distance was achieved (used to recover shortest paths). Distances live in
// a dense per-door table recycled across queries, so a warm run allocates
// nothing.
type sourceDists struct {
	// tab records, per door, the shortest distance from the source and the
	// previous door on that shortest path: an access door of the child
	// level, or the superior door of the source partition, or NoDoor when
	// the source reaches the door without passing another recorded door.
	tab doorTable
	// nodeOrder lists the nodes climbed, from the leaf to the target.
	nodeOrder []NodeID
}

// reset invalidates the recorded distances for a venue with n doors.
func (s *sourceDists) reset(n int) {
	s.tab.reset(n)
	s.nodeOrder = s.nodeOrder[:0]
}

// distancesToNode implements Algorithm 2: it computes dist(src, d) for every
// access door d of the ancestor node target of Leaf(src), filling in the
// distances to the access doors of every node on the way. The result is
// written into sd, which must have been reset for this venue.
func (t *Tree) distancesToNode(src model.Location, target NodeID, sd *sourceDists) {
	leaf := t.Leaf(src.Partition)
	t.seedLeafDistances(src, leaf, sd)
	sd.nodeOrder = append(sd.nodeOrder, leaf)
	child := leaf
	for child != target {
		parent := t.nodes[child].Parent
		if parent == invalidNode {
			break
		}
		t.propagateToParent(child, parent, sd)
		sd.nodeOrder = append(sd.nodeOrder, parent)
		child = parent
	}
}

// seedLeafDistances computes dist(src, d) for every access door d of the
// leaf containing src using the superior doors of the source partition
// (Section 3.1.1, Eq. 1 restricted to superior doors). On a packed tree the
// superior doors' row positions and the access doors' column positions in
// the leaf matrix are precomputed, so the double loop sweeps the matrix
// slab positionally — no binary searches.
func (t *Tree) seedLeafDistances(src model.Location, leaf NodeID, sd *sourceDists) {
	v := t.venue
	mat := t.nodes[leaf].Matrix
	if t.pk != nil {
		sup := t.pk.superiorDoorsOf(src.Partition)
		supRows := t.pk.supRowsOf(src.Partition)
		cols := t.pk.adPosInOwn[leaf]
		ads := t.nodes[leaf].AccessDoors
		// Superior door outer, access door inner: the walk distance to each
		// superior door is computed once, and the per-door first-wins
		// strict-< update visits candidates for each access door in the
		// same superior-door order the unpacked loop uses, so winners (and
		// their via doors) are identical. The batched seed shares the same
		// candidate order through seedLeafCompact; at single-query scale the
		// in-place update beats gathering (the compact arrays only pay for
		// themselves when one gather serves a whole batch group).
		for si, s := range sup {
			ri := supRows[si]
			if ri < 0 {
				continue
			}
			d := v.DistToDoor(src, s)
			for ai, a := range ads {
				ci := cols[ai]
				if ci < 0 {
					continue
				}
				md := mat.distAt(int(ri), int(ci))
				if md == Infinite {
					continue
				}
				total := d + md
				if cur, ok := sd.tab.get(a); !ok || total < cur {
					if s == a {
						sd.tab.set(a, total, NoDoor)
					} else {
						sd.tab.set(a, total, s)
					}
				}
			}
		}
		return
	}
	sup := t.superiorDoors[src.Partition]
	for _, a := range t.nodes[leaf].AccessDoors {
		best := Infinite
		bestVia := NoDoor
		for _, s := range sup {
			d := v.DistToDoor(src, s)
			md := mat.Dist(s, a)
			if md == Infinite {
				continue
			}
			if d+md < best {
				best = d + md
				if s == a {
					bestVia = NoDoor
				} else {
					bestVia = s
				}
			}
		}
		if best < Infinite {
			sd.tab.set(a, best, bestVia)
		}
	}
}

// seedLeafCompact is the shared core of the packed seed: it gathers the
// compact (column, door) destinations of leaf's access doors and the compact
// (walk distance, row, door) sources of src's superior doors, and sweeps the
// leaf matrix slab into cb.best/cb.via. Candidates are offered in the same
// superior-door order as the loop it replaces, so winners and via doors are
// identical. Both the single-query seed (which scatters into the dense door
// table) and the batched seed (which scatters into an access-door-aligned
// row) consume it.
func (t *Tree) seedLeafCompact(src model.Location, leaf NodeID, cb *combineScratch) {
	v := t.venue
	mat := t.nodes[leaf].Matrix
	sup := t.pk.superiorDoorsOf(src.Partition)
	supRows := t.pk.supRowsOf(src.Partition)
	adCols := t.pk.adPosInOwn[leaf]
	cols, dsts, dstIdx := cb.cols[:0], cb.dsts[:0], cb.dstIdx[:0]
	for ai, a := range t.nodes[leaf].AccessDoors {
		if ci := adCols[ai]; ci >= 0 {
			cols = append(cols, ci)
			dsts = append(dsts, a)
			dstIdx = append(dstIdx, int32(ai))
		}
	}
	cb.cols, cb.dsts, cb.dstIdx = cols, dsts, dstIdx
	cb.prepareBest()
	if len(cols) == 0 {
		return
	}
	base, rows, doors := cb.base[:0], cb.rows[:0], cb.doors[:0]
	for si, s := range sup {
		if ri := supRows[si]; ri >= 0 {
			base = append(base, v.DistToDoor(src, s))
			rows = append(rows, ri)
			doors = append(doors, s)
		}
	}
	cb.base, cb.rows, cb.doors = base, rows, doors
	cb.sweep(mat)
}

// propagateToParent extends the distances from the access doors of child to
// the access doors of parent using the parent's distance matrix (Lemma 1 and
// Eq. 2). Doors whose distance is already known are not recomputed. On a
// packed tree the child access doors' row positions and the parent access
// doors' positions in the parent's own matrix are precomputed, so the climb
// is fully positional.
func (t *Tree) propagateToParent(child, parent NodeID, sd *sourceDists) {
	mat := t.nodes[parent].Matrix
	childAD := t.nodes[child].AccessDoors
	if t.pk != nil {
		childRows := t.pk.adPosInParent[child]
		parentPos := t.pk.adPosInOwn[parent]
		for pi, d := range t.nodes[parent].AccessDoors {
			if sd.tab.has(d) {
				continue
			}
			ci := parentPos[pi]
			if ci < 0 {
				continue
			}
			best := Infinite
			bestVia := NoDoor
			for ki, di := range childAD {
				ri := childRows[ki]
				if ri < 0 {
					continue
				}
				base, ok := sd.tab.get(di)
				if !ok {
					continue
				}
				md := mat.distAt(int(ri), int(ci))
				if md == Infinite {
					continue
				}
				if base+md < best {
					best = base + md
					bestVia = di
				}
			}
			if best < Infinite {
				sd.tab.set(d, best, bestVia)
			}
		}
		return
	}
	for _, d := range t.nodes[parent].AccessDoors {
		if sd.tab.has(d) {
			continue
		}
		best := Infinite
		bestVia := NoDoor
		for _, di := range childAD {
			base, ok := sd.tab.get(di)
			if !ok {
				continue
			}
			md := mat.Dist(di, d)
			if md == Infinite {
				continue
			}
			if base+md < best {
				best = base + md
				bestVia = di
			}
		}
		if best < Infinite {
			sd.tab.set(d, best, bestVia)
		}
	}
}

// Distance implements Algorithm 3: the shortest indoor distance between two
// arbitrary locations. The warm path is allocation-free: query scratch is
// recycled through a pool, so concurrent callers are safe and do not contend.
func (t *Tree) Distance(s, d model.Location) float64 {
	sc := t.getDistScratch()
	dist, _, _, _ := t.distanceInternal(s, d, sc)
	t.putDistScratch(sc)
	return dist
}

// distanceInternal computes the shortest distance between s and d and, when
// the two locations are in different leaves, returns the source-side and
// target-side Algorithm-2 results (pointing into sc) plus the pair of access
// doors of the LCA's children realising the minimum (used by Path).
func (t *Tree) distanceInternal(s, d model.Location, sc *distScratch) (float64, *sourceDists, *sourceDists, [2]model.DoorID) {
	none := [2]model.DoorID{NoDoor, NoDoor}
	if s.Partition == d.Partition {
		return directIntraPartition(t.venue, s, d), nil, nil, none
	}
	leafS := t.Leaf(s.Partition)
	leafD := t.Leaf(d.Partition)
	if leafS == leafD {
		// Both locations are in the same leaf, whose matrix holds no
		// door-to-door distances inside it: the paper falls back to a
		// Dijkstra expansion on the D2D graph. It is not cheap — ~400 µs
		// per call on Men full, where leaves span dozens of partitions,
		// against microseconds for a cross-leaf pair.
		return t.venue.D2D().LocationDist(s, d), nil, nil, none
	}
	lca := t.LCA(leafS, leafD)
	ns := t.ChildToward(lca, leafS)
	nt := t.ChildToward(lca, leafD)
	sdS, sdD := &sc.src, &sc.dst
	numDoors := t.venue.NumDoors()
	sdS.reset(numDoors)
	sdD.reset(numDoors)
	t.distancesToNode(s, ns, sdS)
	t.distancesToNode(d, nt, sdD)
	mat := t.nodes[lca].Matrix
	best := Infinite
	bestPair := none
	if t.pk != nil {
		// Packed: both children's access-door positions among the LCA matrix
		// rows/columns are precomputed — the pairing loop is positional.
		rowS := t.pk.adPosInParent[ns]
		colD := t.pk.adPosInParent[nt]
		for i, di := range t.nodes[ns].AccessDoors {
			if rowS[i] < 0 {
				continue
			}
			ds, ok := sdS.tab.get(di)
			if !ok {
				continue
			}
			for j, dj := range t.nodes[nt].AccessDoors {
				if colD[j] < 0 {
					continue
				}
				dd, ok := sdD.tab.get(dj)
				if !ok {
					continue
				}
				md := mat.distAt(int(rowS[i]), int(colD[j]))
				if md == Infinite {
					continue
				}
				if total := ds + md + dd; total < best {
					best = total
					bestPair = [2]model.DoorID{di, dj}
				}
			}
		}
		return best, sdS, sdD, bestPair
	}
	for _, di := range t.nodes[ns].AccessDoors {
		ds, ok := sdS.tab.get(di)
		if !ok {
			continue
		}
		for _, dj := range t.nodes[nt].AccessDoors {
			dd, ok := sdD.tab.get(dj)
			if !ok {
				continue
			}
			md := mat.Dist(di, dj)
			if md == Infinite {
				continue
			}
			if total := ds + md + dd; total < best {
				best = total
				bestPair = [2]model.DoorID{di, dj}
			}
		}
	}
	return best, sdS, sdD, bestPair
}

// directIntraPartition is the walking distance between two locations in the
// same partition.
func directIntraPartition(v *model.Venue, s, d model.Location) float64 {
	p := v.Partition(s.Partition)
	if p.TraversalCost > 0 {
		return p.TraversalCost
	}
	return s.Point.PlanarDist(d.Point)
}
