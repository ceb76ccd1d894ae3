package iptree

import (
	"sync"
	"sync/atomic"

	"viptree/internal/index"
	"viptree/internal/model"
)

// This file implements the tree-lifetime climb cache consulted by the
// batched kNN/range path (objbatch.go). A climb block is the output of one
// Algorithm-2 leaf-to-root climb: the distances from a source location to
// the access doors of every ancestor of its leaf, laid out chain-order
// (leaf first, root last, each node's slice aligned with its AccessDoors).
// Blocks depend only on the source location and the static tree topology —
// never on the embedded objects — so they stay valid across object updates
// and epoch publications, which is what makes caching them across batches
// safe with no invalidation at all. Skewed workloads (hot lobbies, rush-hour
// entrances) issue many queries from literally the same location; a warm
// hit hands the finished block back and the batch performs zero
// leaf-to-root matrix sweeps for that source.
//
// The cache is bounded (a fixed number of entries), keyed by the exact
// source location, and evicted with a clock (second-chance) hand: a lookup
// sets the slot's reference bit, the hand clears bits until it finds a
// cold slot and reuses it. Blocks handed out are immutable —
// eviction drops the cache's reference, never the reader's — so lookups
// are a short critical section and readers touch the block lock-free.

// defaultClimbCacheEntries bounds the cache when the capacity was never
// configured. At a few hundred bytes per block this keeps the default
// footprint in the low megabytes on paper-scale trees.
const defaultClimbCacheEntries = 1024

// climbSlot is one clock slot of the cache.
type climbSlot struct {
	loc   model.Location
	block []float64
	ref   bool
}

// climbCache is the bounded location-keyed block cache. The zero value is
// ready to use with the default capacity.
type climbCache struct {
	mu     sync.Mutex
	slots  []climbSlot
	byLoc  map[model.Location]int
	hand   int
	capSet bool
	cap    int

	hits, misses, evictions uint64
	bytes                   int64
	// sweeps counts leaf-to-root matrix sweep levels executed by batched
	// climb fills (one per propagated level); it is written outside the
	// mutex by the fill path, hence atomic.
	sweeps atomic.Uint64
}

// capacity returns the configured entry bound (the default when never set;
// zero means the cache is disabled).
func (c *climbCache) capacity() int {
	if !c.capSet {
		return defaultClimbCacheEntries
	}
	return c.cap
}

// setCapacity bounds the cache to at most n entries; n == 0 disables it and
// n < 0 restores the default bound. Resident entries are dropped (the
// counters are kept), so callers can use it to reset the cache between
// measurement runs.
func (c *climbCache) setCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capSet = n >= 0
	c.cap = max(n, 0)
	c.slots = nil
	c.byLoc = nil
	c.hand = 0
	c.bytes = 0
}

// lookup returns the cached block for the location, or nil. The returned
// slice is immutable; callers may read it after the call without holding
// any lock.
func (c *climbCache) lookup(loc model.Location) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity() == 0 {
		return nil
	}
	if i, ok := c.byLoc[loc]; ok {
		c.slots[i].ref = true
		c.hits++
		return c.slots[i].block
	}
	c.misses++
	return nil
}

// insert copies the block into a cache-owned slice and admits it under the
// location, evicting with the clock hand when full. A concurrent insert of
// the same location wins harmlessly: blocks for one location are
// bit-identical by construction.
func (c *climbCache) insert(loc model.Location, block []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	capEntries := c.capacity()
	if capEntries == 0 {
		return
	}
	if _, ok := c.byLoc[loc]; ok {
		return
	}
	if c.byLoc == nil {
		c.byLoc = make(map[model.Location]int)
	}
	var i int
	if len(c.slots) < capEntries {
		i = len(c.slots)
		c.slots = append(c.slots, climbSlot{})
	} else {
		// Clock sweep: every slot is in use once the cache is full; a
		// referenced slot gets a second chance by having its bit cleared.
		for c.slots[c.hand].ref {
			c.slots[c.hand].ref = false
			c.hand = (c.hand + 1) % len(c.slots)
		}
		i = c.hand
		c.hand = (c.hand + 1) % len(c.slots)
		delete(c.byLoc, c.slots[i].loc)
		c.evictions++
		c.bytes -= int64(len(c.slots[i].block)) * 8
	}
	owned := make([]float64, len(block))
	copy(owned, block)
	c.slots[i] = climbSlot{loc: loc, block: owned, ref: true}
	c.byLoc[loc] = i
	c.bytes += int64(len(owned)) * 8
}

// stats snapshots the cache counters.
func (c *climbCache) stats() index.ClimbCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return index.ClimbCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.slots),
		Bytes:     c.bytes,
		Sweeps:    c.sweeps.Load(),
	}
}

// ClimbCacheStats snapshots the counters of the tree's climb cache: the
// tree-lifetime cache of Algorithm-2 climb blocks consulted by the batched
// kNN/range path (KNNBatch/RangeBatch).
func (t *Tree) ClimbCacheStats() index.ClimbCacheStats { return t.climb.stats() }

// SetClimbCacheCapacity bounds the climb cache to at most n entries; n == 0
// disables caching entirely and n < 0 restores the default bound. Resident
// entries are dropped, so calling it also resets the cache (the counters are
// kept). Safe to call concurrently with queries.
func (t *Tree) SetClimbCacheCapacity(n int) { t.climb.setCapacity(n) }

// ClimbCacheStats forwards the counters of the underlying tree's climb
// cache, implementing index.ClimbCacheReporter on the object index — the
// handle the engine and queryrunner hold.
func (oi *ObjectIndex) ClimbCacheStats() index.ClimbCacheStats { return oi.tree.ClimbCacheStats() }
