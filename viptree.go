// Package viptree is the public API of this repository: a Go implementation
// of the IP-Tree and VIP-Tree indoor spatial indexes from
//
//	Zhou Shao, Muhammad Aamir Cheema, David Taniar, Hua Lu.
//	"VIP-Tree: An Effective Index for Indoor Spatial Queries."
//	PVLDB 10(4): 325–336, 2016.
//
// The package exposes the indoor data model (venues built from partitions
// and doors), synthetic venue generators matching the paper's data sets, the
// IP-Tree and VIP-Tree indexes with shortest-distance, shortest-path, k
// nearest neighbour and range queries, and the baselines used in the paper's
// evaluation (distance matrix, distance-aware model, G-tree, ROAD).
//
// The query stack is organised in three layers:
//
//   - Model layer: venues, partitions, doors and the door-to-door graph
//     (NewVenueBuilder, GenerateBuilding, GenerateCampus, …).
//   - Index layer: the six indexes, all implementing the uniform capability
//     interface Index (Distance, Path, MemoryBytes, Stats) and producing
//     object queriers for kNN/range queries (ObjectIndexer).
//   - Engine layer: a concurrent query engine (NewEngine) with typed
//     queries, a batch API and a worker-pool executor safe for parallel
//     callers. Index hot paths are allocation-free on the warm path, so the
//     engine scales across cores without contending on the allocator.
//
// # Quickstart
//
//	venue := viptree.MustGenerateBuilding(viptree.BuildingConfig{
//		Name: "office", Floors: 5, RoomsPerHallway: 30,
//	})
//	tree := viptree.MustBuildVIPTree(venue)
//	rng := rand.New(rand.NewSource(1))
//	s, t := venue.RandomLocation(rng), venue.RandomLocation(rng)
//	fmt.Println(tree.Distance(s, t))
//
// # Serving queries concurrently
//
//	objects := []viptree.Location{...}
//	eng := viptree.NewEngine(tree, viptree.EngineOptions{
//		Objects: tree.IndexObjects(objects),
//	})
//	results := eng.ExecuteBatch([]viptree.Query{
//		{Kind: viptree.QueryDistance, S: s, T: t},
//		{Kind: viptree.QueryKNN, S: s, K: 5},
//	})
//
// # Moving objects
//
// The object index is mutable: Insert, Delete and Move update only the
// leaf (or pair of leaves) containing the object and are safe to call
// while queries are being served — the paper's moving-objects scenario.
// Updates can also be submitted through the engine (QueryInsert,
// QueryDelete, QueryMove), freely mixed with reads in one batch:
//
//	objIndex := tree.IndexObjects(objects)
//	id, _ := objIndex.Insert(loc)   // cost: the leaf containing loc
//	_ = objIndex.Move(id, elsewhere) // cost: source + target leaf
//	_ = objIndex.Delete(id)
//
// Internally every mutation flows through a single-writer update log
// (UpdateLog) that applies updates to a writer-private shadow and
// atomically publishes immutable epochs; queries pin an epoch with one
// atomic pointer load, so the read path performs no lock operations at
// all and each result reflects exactly a prefix of the update log — a
// cross-leaf Move is atomic from a reader's view. Every applied update
// carries a monotonic gap-free sequence number, and external systems can
// tail the ordered change feed:
//
//	sub, _ := objIndex.ChangeLog().Subscribe(0, 256)
//	for rec := range sub.Events() { ... } // every update, in order
//
// See the examples directory for complete programs.
package viptree

import (
	"io"

	"viptree/internal/baseline/distaware"
	"viptree/internal/baseline/distmatrix"
	"viptree/internal/baseline/gtree"
	"viptree/internal/baseline/road"
	"viptree/internal/engine"
	"viptree/internal/geom"
	"viptree/internal/index"
	"viptree/internal/iptree"
	"viptree/internal/model"
	"viptree/internal/serial"
	"viptree/internal/snapshot"
	"viptree/internal/updatelog"
	"viptree/internal/venuegen"
	"viptree/internal/wal"
)

// Core data-model types.
type (
	// Venue is a complete indoor space: partitions connected by doors.
	Venue = model.Venue
	// VenueBuilder assembles a venue incrementally.
	VenueBuilder = model.Builder
	// Location is a point inside a specific partition of a venue.
	Location = model.Location
	// Point is a three-dimensional indoor coordinate (x, y, floor).
	Point = geom.Point
	// Rect is an axis-aligned partition footprint on one floor.
	Rect = geom.Rect
	// DoorID identifies a door within a venue.
	DoorID = model.DoorID
	// PartitionID identifies an indoor partition within a venue.
	PartitionID = model.PartitionID
	// PartitionClass describes the real-world role of a partition.
	PartitionClass = model.Class
	// VenueStats summarises a venue (Table 2 of the paper).
	VenueStats = model.Stats
)

// Partition classes for venue construction.
const (
	Room      = model.ClassRoom
	Hallway   = model.ClassHallway
	Staircase = model.ClassStaircase
	Lift      = model.ClassLift
	Escalator = model.ClassEscalator
	// NoPartition marks the exterior side of an entrance door.
	NoPartition = model.NoPartition
)

// Index types.
type (
	// IPTree is the Indoor Partitioning Tree index.
	IPTree = iptree.Tree
	// VIPTree is the Vivid IP-Tree index (IP-Tree plus per-door
	// materialised ancestor distances).
	VIPTree = iptree.VIPTree
	// TreeOptions configures IP-Tree/VIP-Tree construction, including the
	// construction worker count (Parallelism; builds are bit-identical at
	// any value) and the paper's ablation switches.
	TreeOptions = iptree.Options
	// TreeBuildTimings reports the per-phase construction wall clock of a
	// built tree (Tree.BuildTimings).
	TreeBuildTimings = iptree.BuildTimings
	// TreeStats reports ρ, f, M and related structural statistics.
	TreeStats = iptree.Stats
	// ObjectIndex embeds a set of objects into a tree for kNN/range
	// queries. It is mutable: Insert, Delete and Move update only the leaf
	// (or pair of leaves) containing the object and run safely while
	// queries are being served.
	ObjectIndex = iptree.ObjectIndex
	// ObjectID identifies an object within an ObjectIndex.
	ObjectID = iptree.ObjectID
	// ObjectResult is a single kNN or range query result.
	ObjectResult = index.ObjectResult
	// MutableObjectIndexer is the capability interface of object queriers
	// that support live Insert/Delete/Move; the IP-Tree and VIP-Tree
	// object indexes implement it.
	MutableObjectIndexer = index.MutableObjectIndexer
	// ChangeLogger is the capability interface of mutable object indexes
	// whose updates flow through a single-writer update log with
	// lock-free epoch reads and an exportable change feed; the
	// IP-Tree and VIP-Tree object indexes implement it.
	ChangeLogger = index.ChangeLogger
	// UpdateLog is the single-writer combining log behind a mutable
	// object index: it assigns monotonic gap-free sequence numbers,
	// publishes immutable epochs and serves the ordered change feed.
	UpdateLog = updatelog.Log
	// UpdateRecord is one applied update in the log: sequence number,
	// operation and the object it touched.
	UpdateRecord = updatelog.Record
	// UpdateOp is the operation kind of an UpdateRecord.
	UpdateOp = updatelog.Op
	// ChangeSubscription is a live subscription to the change feed,
	// delivering every applied update exactly once, in order.
	ChangeSubscription = updatelog.Subscription
	// DistanceQuerier is the query interface shared by all indexes.
	DistanceQuerier = index.DistanceQuerier
	// ObjectQuerier is the object-query interface shared by all indexes.
	ObjectQuerier = index.ObjectQuerier
	// Index is the uniform capability interface implemented by all six
	// indexes: Name, Distance, Path, MemoryBytes and Stats.
	Index = index.Index
	// ObjectIndexer is an Index that can embed a set of objects for
	// kNN/range queries.
	ObjectIndexer = index.ObjectIndexer
	// FullIndex is the complete capability surface (Index plus KNN/Range);
	// build one with CombineIndex or IndexWithObjects.
	FullIndex = index.Full
	// LocationPair is one source/target pair of a batched distance query.
	LocationPair = index.LocationPair
	// DistanceBatcher is the capability interface of indexes that answer
	// many distance queries in one call, sharing work between queries; the
	// IP-Tree and VIP-Tree implement it and the engine's batched query
	// planner uses it automatically.
	DistanceBatcher = index.DistanceBatcher
	// KNNQuery is one query of a batched kNN call (query point and result
	// count).
	KNNQuery = index.KNNQuery
	// RangeQuery is one query of a batched range call (query point and
	// distance bound).
	RangeQuery = index.RangeQuery
	// KNNBatcher is the capability interface of object queriers that answer
	// many kNN queries in one call, sharing the per-source climbs; the
	// IP-Tree and VIP-Tree object indexes implement it and the engine's
	// batched query planner uses it automatically.
	KNNBatcher = index.KNNBatcher
	// RangeBatcher is the batched-range counterpart of KNNBatcher.
	RangeBatcher = index.RangeBatcher
	// ClimbCacheStats is a snapshot of the climb cache counters of a tree
	// (hits, misses, evictions, residency and climb sweeps).
	ClimbCacheStats = index.ClimbCacheStats
	// ClimbCacheReporter is implemented by object queriers that maintain a
	// climb cache and report its counters.
	ClimbCacheReporter = index.ClimbCacheReporter
	// IndexStats is the uniform construction metadata reported by Stats.
	IndexStats = index.Stats
)

// Query-engine types: the concurrent execution layer over the indexes.
type (
	// Engine executes typed queries against one index, sequentially or over
	// a worker pool; it is safe for concurrent callers.
	Engine = engine.Engine
	// EngineOptions configures engine construction (worker count, object
	// querier for kNN/range queries).
	EngineOptions = engine.Options
	// EngineStats counts the queries executed per kind.
	EngineStats = engine.Stats
	// Query is one typed query submitted to an engine.
	Query = engine.Query
	// QueryKind selects the query type (QueryDistance, QueryPath, QueryKNN,
	// QueryRange).
	QueryKind = engine.Kind
	// QueryResult is the outcome of one engine query.
	QueryResult = engine.Result
)

// Query kinds accepted by Engine.Execute and Engine.ExecuteBatch. The first
// four are reads; QueryInsert, QueryDelete and QueryMove are object updates
// executed against a mutable object index (the IP-Tree/VIP-Tree ObjectIndex)
// and can be mixed freely with reads in one batch.
const (
	QueryDistance = engine.KindDistance
	QueryPath     = engine.KindPath
	QueryKNN      = engine.KindKNN
	QueryRange    = engine.KindRange
	QueryInsert   = engine.KindInsert
	QueryDelete   = engine.KindDelete
	QueryMove     = engine.KindMove
)

// Operation kinds of an UpdateRecord in the change feed.
const (
	UpdateInsert = updatelog.OpInsert
	UpdateDelete = updatelog.OpDelete
	UpdateMove   = updatelog.OpMove
)

// ErrNoObjectIndex is reported by kNN/range queries on an engine built
// without an object querier.
var ErrNoObjectIndex = engine.ErrNoObjectIndex

// ErrInvalidQuery is reported by queries no index can answer: a partition
// outside the venue, k < 1, or a NaN or negative radius.
var ErrInvalidQuery = engine.ErrInvalidQuery

// ErrImmutableObjects is reported by insert/delete/move queries on an engine
// whose object querier does not support live updates (the baselines).
var ErrImmutableObjects = engine.ErrImmutableObjects

// ErrNoSuchObject is reported by object updates addressing an ID that was
// never allocated or has been deleted.
var ErrNoSuchObject = iptree.ErrNoSuchObject

// NewEngine returns a concurrent query engine over the index. Attach an
// object querier through EngineOptions.Objects to serve kNN and range
// queries; set EngineOptions.Workers to bound batch parallelism (zero
// selects GOMAXPROCS).
func NewEngine(ix Index, opts EngineOptions) *Engine { return engine.New(ix, opts) }

// CombineIndex glues a distance index and an object querier into the full
// capability interface.
func CombineIndex(ix Index, objects ObjectQuerier) FullIndex { return index.Combine(ix, objects) }

// IndexWithObjects embeds the objects into the indexer and returns the full
// capability interface over the pair.
func IndexWithObjects(ix ObjectIndexer, objects []Location) FullIndex {
	return index.WithObjects(ix, objects)
}

// Baseline index types used by the paper's evaluation.
type (
	// DistanceMatrix is the DistMx baseline (O(D²) materialisation).
	DistanceMatrix = distmatrix.Matrix
	// DistAware is the expansion-based distance-aware model baseline.
	DistAware = distaware.Index
	// GTree is the G-tree road-network index adapted to indoor graphs.
	GTree = gtree.Tree
	// GTreeOptions configures G-tree construction.
	GTreeOptions = gtree.Options
	// Road is the ROAD route-overlay index adapted to indoor graphs.
	Road = road.Index
	// RoadOptions configures ROAD construction.
	RoadOptions = road.Options
)

// Venue generation types (synthetic stand-ins for the paper's floor plans).
type (
	// BuildingConfig parameterises a synthetic multi-floor building.
	BuildingConfig = venuegen.BuildingConfig
	// CampusConfig parameterises a synthetic multi-building campus.
	CampusConfig = venuegen.CampusConfig
	// Scale selects tiny/small/full preset venue sizes.
	Scale = venuegen.Scale
)

// Preset scales.
const (
	ScaleTiny  = venuegen.ScaleTiny
	ScaleSmall = venuegen.ScaleSmall
	ScaleFull  = venuegen.ScaleFull
)

// NewVenueBuilder returns a builder for constructing a venue by hand.
func NewVenueBuilder(name string) *VenueBuilder { return model.NewBuilder(name) }

// GenerateBuilding generates a synthetic multi-floor building.
func GenerateBuilding(cfg BuildingConfig) (*Venue, error) { return venuegen.Building(cfg) }

// MustGenerateBuilding is GenerateBuilding but panics on error.
func MustGenerateBuilding(cfg BuildingConfig) *Venue { return venuegen.MustBuilding(cfg) }

// GenerateCampus generates a synthetic multi-building campus.
func GenerateCampus(cfg CampusConfig) (*Venue, error) { return venuegen.Campus(cfg) }

// MustGenerateCampus is GenerateCampus but panics on error.
func MustGenerateCampus(cfg CampusConfig) *Venue { return venuegen.MustCampus(cfg) }

// Replicate stacks copies of a venue connected by staircases (the MC-2,
// Men-2, CL-2 construction of the paper).
func Replicate(v *Venue, copies int, stairCost float64) (*Venue, error) {
	return venuegen.Replicate(v, copies, stairCost)
}

// MelbourneCentral, Menzies and Clayton return synthetic venues with the
// statistical shape of the paper's three real data sets (Table 2).
func MelbourneCentral(s Scale) *Venue { return venuegen.MelbourneCentral(s) }

// Menzies returns the office-building-like preset venue.
func Menzies(s Scale) *Venue { return venuegen.Menzies(s) }

// Clayton returns the campus-like preset venue.
func Clayton(s Scale) *Venue { return venuegen.Clayton(s) }

// PaperExample returns the small hand-crafted venue used in documentation
// and tests (in the spirit of Fig. 1 of the paper).
func PaperExample() *Venue { return venuegen.PaperExample() }

// BuildIPTree builds an IP-Tree over a venue with default options (t = 2).
func BuildIPTree(v *Venue) (*IPTree, error) { return iptree.BuildIPTree(v, iptree.Options{}) }

// MustBuildIPTree is BuildIPTree but panics on error.
func MustBuildIPTree(v *Venue) *IPTree { return iptree.MustBuildIPTree(v, iptree.Options{}) }

// BuildIPTreeWithOptions builds an IP-Tree with explicit options.
func BuildIPTreeWithOptions(v *Venue, opts TreeOptions) (*IPTree, error) {
	return iptree.BuildIPTree(v, opts)
}

// BuildVIPTree builds a VIP-Tree over a venue with default options (t = 2).
func BuildVIPTree(v *Venue) (*VIPTree, error) { return iptree.BuildVIPTree(v, iptree.Options{}) }

// MustBuildVIPTree is BuildVIPTree but panics on error.
func MustBuildVIPTree(v *Venue) *VIPTree { return iptree.MustBuildVIPTree(v, iptree.Options{}) }

// BuildVIPTreeWithOptions builds a VIP-Tree with explicit options.
func BuildVIPTreeWithOptions(v *Venue, opts TreeOptions) (*VIPTree, error) {
	return iptree.BuildVIPTree(v, opts)
}

// MustBuildVIPTreeWithDegree builds a VIP-Tree with the given minimum degree
// t (Fig 7 evaluates t between 2 and 100); it panics on error.
func MustBuildVIPTreeWithDegree(v *Venue, minDegree int) *VIPTree {
	return iptree.MustBuildVIPTree(v, iptree.Options{MinDegree: minDegree})
}

// BuildDistanceMatrix builds the DistMx baseline (with the no-through-door
// optimisation enabled).
func BuildDistanceMatrix(v *Venue) *DistanceMatrix { return distmatrix.Build(v, true) }

// BuildDistanceMatrixNoOpt builds the DistMx-- variant of Fig 9a: the full
// distance matrix without the no-through-door query optimisation.
func BuildDistanceMatrixNoOpt(v *Venue) *DistanceMatrix { return distmatrix.Build(v, false) }

// NewDistAware returns the expansion-based DistAw baseline.
func NewDistAware(v *Venue) *DistAware { return distaware.New(v) }

// BuildGTree builds the G-tree baseline.
func BuildGTree(v *Venue, opts GTreeOptions) *GTree { return gtree.Build(v, opts) }

// BuildRoad builds the ROAD baseline.
func BuildRoad(v *Venue, opts RoadOptions) *Road { return road.Build(v, opts) }

// SaveVenue persists a venue to a file so large generated venues can be
// reused across runs.
func SaveVenue(path string, v *Venue) error { return serial.Save(path, v) }

// LoadVenue loads a venue previously written by SaveVenue, re-validating it
// and rebuilding its door-to-door graph.
func LoadVenue(path string) (*Venue, error) { return serial.Load(path) }

// Snapshot persistence: build an index once, serialise it, and serve from the
// loaded copy without re-running construction.
type (
	// Snapshotter is an index whose fully built state can be exported to a
	// snapshot and restored without re-running construction. The IP-Tree and
	// VIP-Tree implement it.
	Snapshotter = index.Snapshotter
	// IndexSnapshot is a loaded snapshot: the venue, the restored index and
	// an optional embedded object index.
	IndexSnapshot = snapshot.Snapshot
)

// Snapshot corruption/version errors reported by ReadSnapshot and
// LoadSnapshot. Version mismatches are reported as *snapshot.VersionError.
var (
	// ErrNotSnapshot reports a file that is not a snapshot at all.
	ErrNotSnapshot = snapshot.ErrNotSnapshot
	// ErrSnapshotTruncated reports a short or cut-off snapshot file.
	ErrSnapshotTruncated = snapshot.ErrTruncated
	// ErrSnapshotChecksum reports payload corruption.
	ErrSnapshotChecksum = snapshot.ErrChecksum
)

// WriteSnapshot serialises a fully built index (and, optionally, an object
// index built over it — pass nil to omit) into the versioned snapshot
// container. The venue must be the one the index was built over.
func WriteSnapshot(w io.Writer, v *Venue, ix Snapshotter, objects *ObjectIndex) error {
	return snapshot.Write(w, v, ix, objects)
}

// ReadSnapshot loads a snapshot, validating the header and checksum, and
// restores the index without re-running construction. The loaded index
// answers bit-identical queries to the one that was written.
func ReadSnapshot(r io.Reader) (*IndexSnapshot, error) { return snapshot.Read(r) }

// SaveSnapshot writes a snapshot to a file, creating or truncating it.
func SaveSnapshot(path string, v *Venue, ix Snapshotter, objects *ObjectIndex) error {
	return snapshot.Save(path, v, ix, objects)
}

// LoadSnapshot reads a snapshot from a file written by SaveSnapshot.
func LoadSnapshot(path string) (*IndexSnapshot, error) { return snapshot.Load(path) }

// Durability: a segmented write-ahead log makes object updates crash-safe.
// Open an engine with EngineOptions.WALDir set (via OpenEngine) and every
// update applied by the index is appended to an on-disk log and fsynced per
// the configured policy; after a crash the next OpenEngine replays the log
// over the loaded snapshot, truncating any torn tail left by the crash.
type (
	// WAL is the segmented, CRC-framed write-ahead log. Through it callers
	// observe the durable watermark (DurableSeq), force an fsync (Flush) and
	// reclaim segments covered by a snapshot (Checkpoint).
	WAL = wal.WAL
	// WALOptions configures the log: directory, segment size, fsync policy
	// (SyncAlways, SyncInterval, SyncOnRotate) and the retry/probe timings
	// of degraded mode.
	WALOptions = wal.Options
	// WALSyncPolicy picks when appended records are fsynced — the
	// durability/throughput trade-off.
	WALSyncPolicy = wal.SyncPolicy
	// WALHealth is a point-in-time health snapshot of the log: state,
	// watermarks, segment count and the error behind a degradation.
	WALHealth = wal.Health
	// WALState is the log's lifecycle state (healthy, degraded, closed).
	WALState = wal.State
	// WALCorruptionError reports mid-log corruption found during recovery —
	// damage that cannot be explained by a torn final write and therefore
	// refuses to load rather than silently dropping records.
	WALCorruptionError = wal.CorruptionError
	// WALRecoveryReport describes what OpenEngine reconstructed: records
	// scanned and replayed, torn-tail truncation, and the scan/replay split
	// of the recovery wall clock.
	WALRecoveryReport = engine.WALRecovery
	// EngineHealth reports whether a durable engine currently accepts
	// updates; see Engine.Health.
	EngineHealth = engine.Health
)

// Fsync policies for WALOptions.Sync.
var (
	// SyncAlways fsyncs after every applied batch: an acknowledged-durable
	// update is never lost, at the cost of one fsync per batch.
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs at most every d: bounded data loss, higher
	// throughput.
	SyncInterval = wal.SyncInterval
	// SyncOnRotate fsyncs only at segment boundaries: fastest, loses up to
	// a segment on crash.
	SyncOnRotate = wal.SyncOnRotate
)

// ErrWALDegradedReadOnly is reported by updates while the write-ahead log
// cannot reach its disk: the engine serves reads and rejects writes rather
// than acknowledging updates it cannot persist, and resumes automatically
// once a disk probe succeeds.
var ErrWALDegradedReadOnly = wal.ErrDegradedReadOnly

// ErrWALCorrupt is the sentinel wrapped by every *WALCorruptionError.
var ErrWALCorrupt = wal.ErrCorrupt

// OpenEngine is NewEngine plus durability: it recovers the write-ahead log
// under opts.WALDir (replaying whatever the restored object index does not
// already cover), attaches the log to the index's change feed, and returns
// the recovery report alongside the engine. Close the engine to flush and
// release the log.
//
//	eng, rep, err := viptree.OpenEngine(tree, viptree.EngineOptions{
//		Objects: tree.IndexObjects(objects),
//		WALDir:  "/var/lib/vip/wal",
//	})
func OpenEngine(ix Index, opts EngineOptions) (*Engine, *WALRecoveryReport, error) {
	return engine.Open(ix, opts)
}
