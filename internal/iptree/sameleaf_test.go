package iptree

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"viptree/internal/geom"
	"viptree/internal/index"
	"viptree/internal/model"
	"viptree/internal/venuegen"
)

// The same-leaf path of Algorithm 5 answers every object in the query's own
// leaf from one D2D expansion (model.D2DGraph.LocationDistsFrom). The tests
// here pin that it is bit-identical (==, no tolerance) to the per-object
// LocationDist definition it replaced.

// islandVenue is a small venue with a disconnected part: a hallway with six
// rooms, plus two rooms reachable only from each other and an isolated room
// whose only door leads outside.
func islandVenue(t *testing.T) *model.Venue {
	t.Helper()
	b := model.NewBuilder("island").AllowDisconnected()
	hall := b.AddPartition("hall", model.ClassHallway, geom.NewRect(0, 10, 60, 14, 0), 0)
	for i := 0; i < 6; i++ {
		x := float64(i) * 10
		r := b.AddPartition("room", model.ClassRoom, geom.NewRect(x, 0, x+10, 10, 0), 0)
		b.AddDoor("d", geom.Point{X: x + 5, Y: 10}, r, hall)
		if i%2 == 0 {
			b.AddDoor("d2", geom.Point{X: x + 8, Y: 10}, r, hall)
		}
	}
	a := b.AddPartition("islandA", model.ClassRoom, geom.NewRect(0, 30, 10, 40, 0), 0)
	c := b.AddPartition("islandB", model.ClassRoom, geom.NewRect(10, 30, 20, 40, 0), 0)
	b.AddDoor("ab", geom.Point{X: 10, Y: 35}, a, c)
	lone := b.AddPartition("lone", model.ClassRoom, geom.NewRect(40, 30, 50, 40, 0), 0)
	b.AddDoor("out", geom.Point{X: 45, Y: 30}, lone, model.NoPartition)
	v, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return v
}

// leafLocations draws n locations inside the partitions of leaf. One in
// four stands on a door of its partition, so its distance equals a settled
// door distance: a bound equal to it is where an off-by-one stop shows.
func leafLocations(v *model.Venue, tree *Tree, leaf NodeID, n int, rng *rand.Rand) []model.Location {
	parts := tree.Node(leaf).Partitions
	out := make([]model.Location, n)
	for i := range out {
		p := parts[rng.Intn(len(parts))]
		if doors := v.Partition(p).Doors; rng.Intn(4) == 0 {
			out[i] = model.Location{Partition: p, Point: v.Door(doors[rng.Intn(len(doors))]).Loc}
			continue
		}
		out[i] = v.RandomLocationIn(p, rng)
	}
	return out
}

// checkLocationDistsFrom compares one LocationDistsFrom call with
// per-target LocationDist. The call may stop at the threshold min(bound,
// k-th smallest value returned); every value within it must be identical,
// and every value beyond it a path length no shorter than the exact one,
// whose exact distance is beyond the threshold too. It returns how many
// values lay beyond the threshold, and how many of those differed from the
// exact distance (the expansion stopped before settling all of that
// target's doors).
func checkLocationDistsFrom(t *testing.T, v *model.Venue, s model.Location, ts []model.Location, bound float64, k int) (beyond, cut int) {
	t.Helper()
	d2d := v.D2D()
	got := make([]float64, len(ts))
	d2d.LocationDistsFrom(s, ts, bound, k, got)
	limit := bound
	if math.IsNaN(limit) {
		limit = math.Inf(1)
	}
	if k > 0 && k <= len(got) {
		sorted := slices.Clone(got)
		slices.Sort(sorted)
		limit = min(limit, sorted[k-1])
	}
	for i, tl := range ts {
		want := d2d.LocationDist(s, tl)
		if got[i] > limit {
			if !(want > limit) || got[i] < want {
				t.Fatalf("%s: LocationDistsFrom(%v, k=%d)[%d] = %v beyond threshold %v (bound %v), exact %v (target %v)",
					v.Name, s, k, i, got[i], limit, bound, want, tl)
			}
			beyond++
			if got[i] != want {
				cut++
			}
			continue
		}
		if got[i] != want {
			t.Fatalf("%s: LocationDistsFrom(%v, k=%d)[%d] = %v, LocationDist = %v (bound %v, target %v)",
				v.Name, s, k, i, got[i], want, bound, tl)
		}
	}
	return beyond, cut
}

// boundsFor lists the bounds the tests cut the expansion at: none (+Inf,
// the unreachable sentinel and NaN, which prunes nothing) and finite ones
// taken from the exact distances, so some stop the expansion early.
func boundsFor(v *model.Venue, s model.Location, ts []model.Location, rng *rand.Rand) []float64 {
	bounds := []float64{math.Inf(1), Infinite, math.NaN(), 0}
	var exact []float64
	for _, tl := range ts {
		if d := v.D2D().LocationDist(s, tl); d != Infinite {
			exact = append(exact, d)
		}
	}
	if len(exact) > 0 {
		slices.Sort(exact)
		for _, q := range []float64{0.1, 0.5, 0.9} {
			bounds = append(bounds, exact[int(q*float64(len(exact)-1))])
		}
		for i := 0; i < 3; i++ {
			bounds = append(bounds, exact[rng.Intn(len(exact))])
		}
		bounds = append(bounds, exact[rng.Intn(len(exact))]*rng.Float64())
	}
	return bounds
}

func TestLocationDistsFromMatchesLocationDist(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	beyond, cut := map[bool]int{}, map[bool]int{}
	for _, v := range []*model.Venue{venuegen.Menzies(venuegen.ScaleSmall), islandVenue(t)} {
		tree := MustBuildIPTree(v, Options{})
		for iter := 0; iter < 20; iter++ {
			s := v.RandomLocation(rng)
			// Targets from s's own leaf (the kNN/range use), a few from
			// anywhere, and some in s's partition.
			ts := leafLocations(v, tree, tree.Leaf(s.Partition), 20+rng.Intn(30), rng)
			for i := 0; i < 4; i++ {
				ts = append(ts, v.RandomLocation(rng), v.RandomLocationIn(s.Partition, rng))
			}
			rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
			for _, bound := range boundsFor(v, s, ts, rng) {
				for _, k := range []int{0, 1, 3, 8, len(ts) + 1} {
					b, c := checkLocationDistsFrom(t, v, s, ts, bound, k)
					beyond[k > 0], cut[k > 0] = beyond[k > 0]+b, cut[k > 0]+c
				}
			}
		}
		checkLocationDistsFrom(t, v, v.RandomLocation(rng), nil, math.Inf(1), 0)
		checkLocationDistsFrom(t, v, v.RandomLocation(rng), nil, math.Inf(1), 1)
	}
	// Both the bounds and the k-th value must have cut expansions short,
	// or the early stops above were never exercised.
	for _, byK := range []bool{false, true} {
		if beyond[byK] == 0 || cut[byK] == 0 {
			t.Fatalf("k > 0 = %v: no expansion stopped early: %d values beyond the threshold, %d inexact", byK, beyond[byK], cut[byK])
		}
	}
}

// TestLocationDistsFromDisconnected pins the unreachable cases: sources and
// targets on either side of the island venue's gaps get the Infinite
// sentinel exactly as LocationDist reports it.
func TestLocationDistsFromDisconnected(t *testing.T) {
	v := islandVenue(t)
	rng := rand.New(rand.NewSource(3))
	all := make([]model.Location, 0, 3*v.NumPartitions())
	for p := range v.Partitions {
		for i := 0; i < 3; i++ {
			all = append(all, v.RandomLocationIn(model.PartitionID(p), rng))
		}
	}
	unreachable := 0
	for _, s := range all {
		for _, tl := range all {
			if v.D2D().LocationDist(s, tl) == Infinite {
				unreachable++
			}
		}
		for _, bound := range boundsFor(v, s, all, rng) {
			for _, k := range []int{0, 1, 4} {
				checkLocationDistsFrom(t, v, s, all, bound, k)
			}
		}
	}
	if unreachable == 0 {
		t.Fatal("island venue has no unreachable pairs")
	}
}

// perObjectAll is the pre-change per-object definition of the object
// distances Algorithm 5 ranks: objects in q's leaf get LocationDist each;
// objects elsewhere get the access-door distance the tree computes (read off
// an unbounded Range, whose other-leaf scan this change does not touch).
// Objects in other leaves that q cannot reach never enter a result.
func perObjectAll(oi *ObjectIndex, objs []model.Location, q model.Location) []index.ObjectResult {
	t := oi.Tree()
	qLeaf := t.Leaf(q.Partition)
	var out []index.ObjectResult
	for _, r := range oi.Range(q, Infinite) {
		if t.Leaf(objs[r.ObjectID].Partition) != qLeaf {
			out = append(out, r)
		}
	}
	for id, o := range objs {
		if t.Leaf(o.Partition) == qLeaf {
			out = append(out, index.ObjectResult{ObjectID: id, Dist: t.venue.D2D().LocationDist(q, o)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ObjectID < out[j].ObjectID
	})
	return out
}

func wantKNN(all []index.ObjectResult, k int) []index.ObjectResult {
	if k <= 0 || len(all) == 0 {
		return nil
	}
	return all[:min(k, len(all))]
}

func wantRange(all []index.ObjectResult, r float64) []index.ObjectResult {
	n := sort.Search(len(all), func(i int) bool { return all[i].Dist > r })
	if n == 0 {
		return nil
	}
	return all[:n]
}

// TestSameLeafObjectsMatchPerObjectDefinition: on venues whose leaves hold
// many partitions, with most objects in the queries' own leaves, KNN,
// Range, KNNBatch and RangeBatch equal the per-object definition exactly.
// Radii are drawn from the same-leaf distances so they stop the shared
// expansion part way.
func TestSameLeafObjectsMatchPerObjectDefinition(t *testing.T) {
	venues := []*model.Venue{venuegen.Menzies(venuegen.ScaleSmall), randomVenue(11), islandVenue(t)}
	for vi, v := range venues {
		checkSameLeafQueries(t, v, int64(vi))
	}
}

func checkSameLeafQueries(t *testing.T, v *model.Venue, seed int64) {
	t.Helper()
	tree := MustBuildIPTree(v, Options{})
	rng := rand.New(rand.NewSource(seed))
	// Crowd the query points' leaves so each holds many objects.
	var objs, points []model.Location
	for len(points) < 24 {
		q := v.RandomLocation(rng)
		points = append(points, q)
		objs = append(objs, leafLocations(v, tree, tree.Leaf(q.Partition), 10+rng.Intn(20), rng)...)
	}
	objs = append(objs, objectSet(v, 40, seed)...)
	oi := tree.IndexObjects(objs)

	var knnQs []index.KNNQuery
	var rangeQs []index.RangeQuery
	var wantK, wantR [][]index.ObjectResult
	for _, q := range points {
		all := perObjectAll(oi, objs, q)
		for _, k := range []int{1, 3, 8, len(objs) + 1} {
			knnQs = append(knnQs, index.KNNQuery{Q: q, K: k})
			wantK = append(wantK, wantKNN(all, k))
		}
		radii := []float64{0, 1e9}
		for _, r := range all {
			if tree.Leaf(objs[r.ObjectID].Partition) == tree.Leaf(q.Partition) && rng.Intn(4) == 0 {
				radii = append(radii, r.Dist, r.Dist*0.999)
			}
		}
		for _, r := range radii {
			rangeQs = append(rangeQs, index.RangeQuery{Q: q, R: r})
			wantR = append(wantR, wantRange(all, r))
		}
	}
	for i, q := range knnQs {
		if got := oi.KNN(q.Q, q.K); !reflect.DeepEqual(got, wantK[i]) {
			t.Fatalf("%s: KNN(%v, %d) = %v, want %v", v.Name, q.Q, q.K, got, wantK[i])
		}
	}
	for i, q := range rangeQs {
		if got := oi.Range(q.Q, q.R); !reflect.DeepEqual(got, wantR[i]) {
			t.Fatalf("%s: Range(%v, %v) = %v, want %v", v.Name, q.Q, q.R, got, wantR[i])
		}
	}
	gotK := make([][]index.ObjectResult, len(knnQs))
	oi.KNNBatch(knnQs, gotK, 2)
	for i := range gotK {
		if !reflect.DeepEqual(gotK[i], wantK[i]) {
			t.Fatalf("%s: KNNBatch[%d] = %v, want %v", v.Name, i, gotK[i], wantK[i])
		}
	}
	gotR := make([][]index.ObjectResult, len(rangeQs))
	oi.RangeBatch(rangeQs, gotR, 2)
	for i := range gotR {
		if !reflect.DeepEqual(gotR[i], wantR[i]) {
			t.Fatalf("%s: RangeBatch[%d] = %v, want %v", v.Name, i, gotR[i], wantR[i])
		}
	}
}
