package anna

import (
	"slices"
	"sort"
	"strings"

	"cloudburst/internal/lattice"
	"cloudburst/internal/vtime"
)

// entry is one stored key on a node.
type entry struct {
	key        string
	lat        lattice.Lattice
	size       int
	lastAccess vtime.Time
	accesses   int64 // accesses in the current stats window
}

// tieredStore is a node's two-tier storage: a bounded memory tier with
// LRU demotion to an unbounded disk tier (the EBS volume of Anna's
// flash/disk tier, folded into the node — the behaviour Cloudburst
// depends on is only the latency difference and capacity pressure).
type tieredStore struct {
	mem         map[string]*entry
	disk        map[string]*entry
	memBytes    int
	memCapacity int // 0 = unbounded

	// Keys changed since the last gossip round (dirtyRepl) and since the
	// last cache-push round (dirtyPush). The ticks drain them, so their
	// cost follows the write rate rather than the number of stored keys.
	dirtyRepl map[string]struct{}
	dirtyPush map[string]struct{}
	drainBuf  []*entry // drainDirty's scratch, reused across ticks
}

func newTieredStore(memCapacity int) *tieredStore {
	return &tieredStore{
		mem:         make(map[string]*entry),
		disk:        make(map[string]*entry),
		memCapacity: memCapacity,
		dirtyRepl:   make(map[string]struct{}),
		dirtyPush:   make(map[string]struct{}),
	}
}

// get returns the entry for key and whether it was served from disk
// (and therefore promoted, paying the disk penalty).
func (s *tieredStore) get(key string, now vtime.Time) (e *entry, fromDisk bool) {
	if e, ok := s.mem[key]; ok {
		e.lastAccess = now
		e.accesses++
		return e, false
	}
	if e, ok := s.disk[key]; ok {
		delete(s.disk, key)
		// Refresh recency before inserting, or the eviction scan inside
		// insertMem would see the stale timestamp and demote the entry
		// straight back to disk.
		e.lastAccess = now
		e.accesses++
		s.insertMem(e, now)
		return e, true
	}
	return nil, false
}

// merge folds lat into key, creating it if absent. It reports whether the
// write landed on disk-resident data (paying the penalty) and the entry.
func (s *tieredStore) merge(key string, lat lattice.Lattice, now vtime.Time) (e *entry, fromDisk bool) {
	e, fromDisk = s.get(key, now)
	if e == nil {
		e = &entry{key: key, lat: lat, size: lat.ByteSize(), lastAccess: now}
		s.insertMem(e, now)
		return e, false
	}
	s.memBytes -= e.size
	e.lat.Merge(lat)
	e.size = e.lat.ByteSize()
	s.memBytes += e.size
	s.evictIfNeeded(now)
	return e, fromDisk
}

// delete removes key from both tiers and both dirty sets, so a key
// created again later starts clean. It reports whether the key existed.
func (s *tieredStore) delete(key string) bool {
	delete(s.dirtyRepl, key)
	delete(s.dirtyPush, key)
	if e, ok := s.mem[key]; ok {
		s.memBytes -= e.size
		delete(s.mem, key)
		return true
	}
	if _, ok := s.disk[key]; ok {
		delete(s.disk, key)
		return true
	}
	return false
}

// resize re-accounts e's size after an in-place mutation (set-element
// removal). get promotes entries to the memory tier, so the common case
// adjusts memBytes; the fallback covers entries mutated while
// disk-resident.
func (s *tieredStore) resize(e *entry) {
	if _, ok := s.mem[e.key]; ok {
		s.memBytes -= e.size
		e.size = e.lat.ByteSize()
		s.memBytes += e.size
		return
	}
	e.size = e.lat.ByteSize()
}

// insertMem places e in the memory tier, demoting LRU entries if the
// capacity is exceeded.
func (s *tieredStore) insertMem(e *entry, now vtime.Time) {
	s.mem[e.key] = e
	s.memBytes += e.size
	s.evictIfNeeded(now)
}

// evictIfNeeded demotes least-recently-used memory entries to disk until
// under capacity. The incoming entry itself can be demoted if it is the
// coldest, matching Anna's policy of keeping the hot working set in
// memory.
func (s *tieredStore) evictIfNeeded(now vtime.Time) {
	for s.memCapacity > 0 && s.memBytes > s.memCapacity && len(s.mem) > 1 {
		var victim *entry
		for _, e := range s.mem {
			if victim == nil || e.lastAccess < victim.lastAccess ||
				(e.lastAccess == victim.lastAccess && e.key < victim.key) {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(s.mem, victim.key)
		s.memBytes -= victim.size
		s.disk[victim.key] = victim
	}
}

// each iterates over all entries (memory then disk) in sorted key order.
// Deterministic order matters: callers send network messages per entry,
// and message order consumes the kernel's random source — unsorted map
// iteration would break run-to-run reproducibility. It sorts every
// stored key, so only ring transfers, stats and diagnostics walk the
// whole store; the gossip and push ticks use drainDirty. fn must not
// mutate the store.
func (s *tieredStore) each(fn func(e *entry, onDisk bool)) {
	for _, k := range sortedEntryKeys(s.mem) {
		fn(s.mem[k], false)
	}
	for _, k := range sortedEntryKeys(s.disk) {
		fn(s.disk[k], true)
	}
}

// drainDirty empties a dirty set (&s.dirtyRepl or &s.dirtyPush) and
// visits its entries in the order each would: memory-tier keys sorted,
// then disk-tier keys sorted, with the tier resolved now. The set is
// replaced rather than cleared: a cleared map keeps the capacity of its
// largest burst (a preload's puts), and ranging over or clearing it
// costs that capacity on every later tick. fn must not mutate the store.
func (s *tieredStore) drainDirty(set *map[string]struct{}, fn func(e *entry)) {
	if len(*set) == 0 {
		return
	}
	buf := s.drainBuf[:0]
	for k := range *set {
		if e, ok := s.mem[k]; ok {
			buf = append(buf, e)
		}
	}
	nMem := len(buf)
	for k := range *set {
		if e, ok := s.disk[k]; ok {
			buf = append(buf, e)
		}
	}
	*set = make(map[string]struct{})
	byKey := func(a, b *entry) int { return strings.Compare(a.key, b.key) }
	slices.SortFunc(buf[:nMem], byKey)
	slices.SortFunc(buf[nMem:], byKey)
	for _, e := range buf {
		fn(e)
	}
	clear(buf)
	s.drainBuf = buf[:0]
}

func sortedEntryKeys(m map[string]*entry) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// totalKeys reports the number of stored keys across tiers.
func (s *tieredStore) totalKeys() int { return len(s.mem) + len(s.disk) }
