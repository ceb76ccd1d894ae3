package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"viptree/internal/engine"
	"viptree/internal/graph"
	"viptree/internal/model"
	"viptree/internal/server"
)

// The answer check runs after the timed window, with updates stopped: it
// re-asks a fixed seeded sample of the workload's batches and compares every
// answer with an oracle that does not use the index — Dijkstra on the
// venue's door-to-door graph for distance and path, and a brute-force scan
// over the object positions the generator last had acknowledged for kNN
// and range.

// close reports whether an answer matches the oracle up to float rounding.
func closeTo(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
}

// objectDists returns the exact indoor distance from q to every object:
// one Dijkstra from each door of q's partition, then the best door pair per
// object (the direct distance inside a shared partition).
func objectDists(v *model.Venue, q model.Location, objects []model.Location) []float64 {
	d2d := v.D2D()
	srcDoors := v.Partition(q.Partition).Doors
	fromDoor := make([][]float64, len(srcDoors))
	for i, sd := range srcDoors {
		fromDoor[i], _ = d2d.Graph.FromSource(int(sd))
	}
	out := make([]float64, len(objects))
	for oi, o := range objects {
		if o.Partition == q.Partition {
			out[oi] = d2d.LocationDist(q, o)
			continue
		}
		best := graph.Infinity
		for i, sd := range srcDoors {
			head := v.DistToDoor(q, sd)
			for _, td := range v.Partition(o.Partition).Doors {
				dv := fromDoor[i][int(td)]
				if dv == graph.Infinity {
					continue
				}
				if total := head + dv + v.DistToDoor(o, td); total < best {
					best = total
				}
			}
		}
		out[oi] = best
	}
	return out
}

// checkAnswers compares one full response with the oracle.
func checkAnswers(v *model.Venue, qs []engine.Query, data []byte, objects []model.Location) error {
	var resp server.QueryResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("decoding response: %v", err)
	}
	if len(resp.Results) != len(qs) {
		return fmt.Errorf("%d results for %d queries", len(resp.Results), len(qs))
	}
	for i, q := range qs {
		res := resp.Results[i]
		if res.Err != "" {
			return fmt.Errorf("query %d: %s", i, res.Err)
		}
		var err error
		switch q.Kind {
		case engine.KindDistance:
			err = checkDistance(v, q, res.Dist)
		case engine.KindPath:
			err = checkPath(v, q, res)
		case engine.KindKNN:
			err = checkKNN(q, res.Objects, objectDists(v, q.S, objects))
		case engine.KindRange:
			err = checkRange(q, res.Objects, objectDists(v, q.S, objects))
		}
		if err != nil {
			return fmt.Errorf("query %d (%s): %v", i, kindNames[q.Kind], err)
		}
	}
	return nil
}

func checkDistance(v *model.Venue, q engine.Query, got float64) error {
	if want := v.D2D().LocationDist(q.S, q.T); !closeTo(got, want) {
		return fmt.Errorf("distance %v, oracle %v", got, want)
	}
	return nil
}

// checkPath checks the length against the oracle and that the door
// sequence is walkable: it leaves the source partition, each step stays
// within one partition, and it enters the target partition.
func checkPath(v *model.Venue, q engine.Query, res server.WireResult) error {
	if err := checkDistance(v, q, res.Dist); err != nil {
		return err
	}
	if q.S.Partition == q.T.Partition {
		return nil
	}
	doors := res.Doors
	if len(doors) == 0 {
		return fmt.Errorf("empty path between partitions %d and %d", q.S.Partition, q.T.Partition)
	}
	if !v.Doors[doors[0]].ConnectsPartition(q.S.Partition) {
		return fmt.Errorf("path starts at door %d outside the source partition", doors[0])
	}
	if !v.Doors[doors[len(doors)-1]].ConnectsPartition(q.T.Partition) {
		return fmt.Errorf("path ends at door %d outside the target partition", doors[len(doors)-1])
	}
	for i := 1; i < len(doors); i++ {
		if !shareEdge(v, model.DoorID(doors[i-1]), model.DoorID(doors[i])) {
			return fmt.Errorf("doors %d and %d are not adjacent", doors[i-1], doors[i])
		}
	}
	return nil
}

func shareEdge(v *model.Venue, a, b model.DoorID) bool {
	for _, e := range v.D2D().Graph.Neighbors(int(a)) {
		if e.To == int(b) {
			return true
		}
	}
	return false
}

// checkKNN accepts any tie order: the i-th result's distance must equal
// both the oracle's distance to that object and the i-th smallest oracle
// distance.
func checkKNN(q engine.Query, got []server.WireObject, dists []float64) error {
	sorted := append([]float64(nil), dists...)
	sort.Float64s(sorted)
	want := min(q.K, len(dists))
	if len(got) != want {
		return fmt.Errorf("%d results, want %d", len(got), want)
	}
	for i, o := range got {
		if o.ID < 0 || o.ID >= len(dists) {
			return fmt.Errorf("unknown object %d", o.ID)
		}
		if !closeTo(o.Dist, dists[o.ID]) || !closeTo(o.Dist, sorted[i]) {
			return fmt.Errorf("result %d: object %d at %v, oracle %v (rank %d: %v)", i, o.ID, o.Dist, dists[o.ID], i, sorted[i])
		}
	}
	return nil
}

// checkRange accepts either answer for an object within rounding of the
// radius; every other object must be in or out exactly as the oracle says.
func checkRange(q engine.Query, got []server.WireObject, dists []float64) error {
	seen := make(map[int]bool, len(got))
	prev := -1.0
	for _, o := range got {
		if o.ID < 0 || o.ID >= len(dists) || seen[o.ID] {
			return fmt.Errorf("unknown or repeated object %d", o.ID)
		}
		seen[o.ID] = true
		if !closeTo(o.Dist, dists[o.ID]) {
			return fmt.Errorf("object %d at %v, oracle %v", o.ID, o.Dist, dists[o.ID])
		}
		if o.Dist < prev {
			return fmt.Errorf("results not ascending at object %d", o.ID)
		}
		prev = o.Dist
		if o.Dist > q.Radius && !closeTo(o.Dist, q.Radius) {
			return fmt.Errorf("object %d at %v outside radius %v", o.ID, o.Dist, q.Radius)
		}
	}
	for id, d := range dists {
		if d <= q.Radius && !closeTo(d, q.Radius) && !seen[id] {
			return fmt.Errorf("object %d at %v missing", id, d)
		}
	}
	return nil
}
