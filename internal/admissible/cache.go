package admissible

// The serving path once kept whole enumerations in a per-shard LRU. Searcher
// replaced enumeration there, so nothing is left to cache; the names below
// remain only so that callers written against the cache still compile.

// Cache holds nothing.
//
// Deprecated: the online planners search for the best set directly.
type Cache struct{}

// NewCache returns an empty Cache, whatever the capacity.
//
// Deprecated: see Cache.
func NewCache(int) *Cache { return &Cache{} }
