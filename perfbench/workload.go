package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"viptree/internal/bench"
	"viptree/internal/engine"
	"viptree/internal/model"
	"viptree/internal/server"
	"viptree/internal/venuegen"
)

// workload is one traffic mix: the venue the node serves, the node flags
// beyond servenode's defaults, the closed-loop readers and the optional
// open-loop side streams (object moves or snapshot publishes).
type workload struct {
	name, why string
	// venue and scale name the venuegen preset; indexbuild builds the VIP
	// index over it with objects random objects placed by -objseed <seed>.
	venue, scale string
	objects      int
	// durable starts the node with -wal; pollEvery, when set, overrides
	// -poll. No other node flag differs from servenode's defaults.
	durable   bool
	pollEvery time.Duration
	// readers is the number of closed-loop connections.
	readers int
	// moveEvery and movesPerBatch define the open-loop move schedule.
	moveEvery     time.Duration
	movesPerBatch int
	// publishEvery is the snapshot publish period.
	publishEvery time.Duration
	// gen returns the pool of read batches the readers cycle through.
	gen func(v *model.Venue, rng *rand.Rand) [][]engine.Query
}

const (
	poolBatches = 2048
	knnK        = 5
	rangeRadius = 50.0
)

var workloads = []*workload{
	{
		name:    "wayfind-campus",
		why:     "CL small, no objects: 64-query kiosk batches cost under 1 us per distance in the index, so JSON and HTTP dominate",
		venue:   "CL",
		scale:   "small",
		readers: 2,
		gen:     genKiosk,
	},
	{
		name:          "track-tower",
		why:           "Men full, 500 objects, durable: zipf kNN and range reads beside open-loop moves load object search, the update log and the WAL",
		venue:         "Men",
		scale:         "full",
		objects:       500,
		durable:       true,
		readers:       1,
		moveEvery:     50 * time.Millisecond,
		movesPerBatch: 16,
		gen:           genTracking,
	},
	{
		name:         "publish-towers",
		why:          "Men-2 full: uniform distance and path batches make the index most of handler time while snapshots are published and hot-swapped",
		venue:        "Men-2",
		scale:        "full",
		objects:      500,
		pollEvery:    10 * time.Millisecond,
		readers:      2,
		publishEvery: 700 * time.Millisecond,
		gen:          genUniform,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// nodeFlags are the servenode flags the workload sets; everything else is
// servenode's default.
func (w *workload) nodeFlags(snapDir, walDir, addr string) []string {
	args := []string{"-snapshots", snapDir, "-listen", addr}
	if w.durable {
		args = append(args, "-wal", walDir)
	}
	if w.pollEvery > 0 {
		args = append(args, "-poll", w.pollEvery.String())
	}
	return args
}

// indexbuildFlags are the arguments of the set-up's indexbuild run.
func (w *workload) indexbuildFlags(seed int64, out string) []string {
	args := []string{"-venue", w.venue, "-scale", w.scale, "-index", "vip", "-out", out}
	if w.objects > 0 {
		args = append(args, "-objects", fmt.Sprint(w.objects), "-objseed", fmt.Sprint(seed))
	}
	return args
}

func scaleOf(name string) venuegen.Scale {
	switch name {
	case "tiny":
		return venuegen.ScaleTiny
	case "small":
		return venuegen.ScaleSmall
	}
	return venuegen.ScaleFull
}

// makeVenue generates the workload's venue in process, independently of the
// node, for input generation and the answer oracle.
func (w *workload) makeVenue() *model.Venue {
	cfg := bench.Config{Scale: scaleOf(w.scale), VenueNames: []string{w.venue}}
	return cfg.Venues()[0].Venue
}

// genKiosk: every batch comes from one kiosk of a set of 32 fixed kiosks;
// 48 distance and 16 path queries to uniform targets, interleaved three to
// one. Each eighth of the pool has its own kiosk set, so a run averages over
// 256 kiosks and its cost does not hinge on where 32 of them happen to
// stand.
func genKiosk(v *model.Venue, rng *rand.Rand) [][]engine.Query {
	const blockBatches = poolBatches / 8
	pool := make([][]engine.Query, poolBatches)
	kiosks := make([]model.Location, 32)
	for b := range pool {
		if b%blockBatches == 0 {
			for i := range kiosks {
				kiosks[i] = v.RandomLocation(rng)
			}
		}
		src := kiosks[rng.Intn(len(kiosks))]
		qs := make([]engine.Query, 64)
		for i := range qs {
			kind := engine.KindDistance
			if i%4 == 3 {
				kind = engine.KindPath
			}
			qs[i] = engine.Query{Kind: kind, S: src, T: v.RandomLocation(rng)}
		}
		pool[b] = qs
	}
	return pool
}

// genUniform: 48 distance and 16 path queries between uniform pairs.
func genUniform(v *model.Venue, rng *rand.Rand) [][]engine.Query {
	pool := make([][]engine.Query, poolBatches)
	for b := range pool {
		qs := make([]engine.Query, 64)
		for i := range qs {
			kind := engine.KindDistance
			if i%4 == 3 {
				kind = engine.KindPath
			}
			qs[i] = engine.Query{Kind: kind, S: v.RandomLocation(rng), T: v.RandomLocation(rng)}
		}
		pool[b] = qs
	}
	return pool
}

// genTracking: 6 kNN queries (k=5) from Zipf s=1.3 hot spots, then 2 range
// queries (r=50 m) from uniform points. Hot spots are drawn the way
// queryrunner -workload zipf draws them — one per partition, shuffled, ranked
// by a Zipf draw — with a fresh ranking for every block of 16 batches, so a
// run's cost does not hinge on the few partitions one ranking makes hottest.
func genTracking(v *model.Venue, rng *rand.Rand) [][]engine.Query {
	const blockBatches = 16
	pool := make([][]engine.Query, poolBatches)
	var hot []model.Location
	var z *rand.Zipf
	for b := range pool {
		if b%blockBatches == 0 {
			hot = make([]model.Location, v.NumPartitions())
			for pid := range hot {
				hot[pid] = v.RandomLocationIn(model.PartitionID(pid), rng)
			}
			rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
			z = rand.NewZipf(rng, 1.3, 1, uint64(len(hot)-1))
		}
		qs := make([]engine.Query, 0, 8)
		for i := 0; i < 6; i++ {
			qs = append(qs, engine.Query{Kind: engine.KindKNN, S: hot[z.Uint64()], K: knnK})
		}
		for i := 0; i < 2; i++ {
			qs = append(qs, engine.Query{Kind: engine.KindRange, S: v.RandomLocation(rng), Radius: rangeRadius})
		}
		pool[b] = qs
	}
	return pool
}

// moveStream draws the object moves of the open-loop schedule: a uniform
// object to a uniform location. The stream is seed-determined; how much of
// it a run sends depends on the run's length.
type moveStream struct {
	v       *model.Venue
	rng     *rand.Rand
	objects int
}

func (m *moveStream) next(n int) []engine.Query {
	qs := make([]engine.Query, n)
	for i := range qs {
		qs[i] = engine.Query{Kind: engine.KindMove, ObjectID: m.rng.Intn(m.objects), S: m.v.RandomLocation(m.rng)}
	}
	return qs
}

var kindNames = map[engine.Kind]string{
	engine.KindDistance: "distance",
	engine.KindPath:     "path",
	engine.KindKNN:      "knn",
	engine.KindRange:    "range",
	engine.KindMove:     "move",
}

func wireLoc(l model.Location) server.WireLocation {
	return server.WireLocation{Partition: int(l.Partition), X: l.Point.X, Y: l.Point.Y, Floor: l.Point.Floor}
}

// encodeBatch renders a batch as a POST /query/{venue} body.
func encodeBatch(qs []engine.Query) []byte {
	req := server.QueryRequest{Queries: make([]server.WireQuery, len(qs))}
	for i, q := range qs {
		wq := server.WireQuery{Kind: kindNames[q.Kind], S: wireLoc(q.S), K: q.K, Radius: q.Radius, ObjectID: q.ObjectID}
		if q.Kind == engine.KindDistance || q.Kind == engine.KindPath {
			wq.T = wireLoc(q.T)
		}
		req.Queries[i] = wq
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // only plain numbers and strings: cannot fail
	}
	return body
}
