package main

import (
	"cloudburst/internal/anna"
	"cloudburst/internal/cluster"
	"cloudburst/internal/codec"
	"cloudburst/internal/vtime"
)

// counts is one reading of every layer's public counters. Readings are
// taken between Cluster.Run calls, when no simulation process runs.
type counts struct {
	kernel        vtime.Stats
	msgs, bytes   int64
	dropped       int64
	codec         codec.Stats
	storedKeys    int
	cacheKVS      anna.ClientStats // summed over every VM's cache
	monitorKVS    anna.ClientStats
	cacheLookups  int64 // cache hits + misses
	residentKeys  int   // keys held by live caches
	execCompleted int64
	memoHits      int64
	reexecutions  int64
	inflight      int
	knownThreads  int
	monitorEvents int
	vms, netNodes int
	trafficIssued int64
	trafficLost   int64
}

// snapshot reads the counters of e's cluster. VMs taken out of the
// cluster during the run still contribute their lifetime counters.
func snapshot(e *episode) counts {
	in := e.in
	var c counts
	c.kernel = in.K.Stats()
	c.msgs, c.bytes, c.dropped = in.Net.MessagesSent, in.Net.BytesSent, in.Net.MessagesDropt
	c.codec = in.Codec.Read()
	c.storedKeys = in.KV.TotalKeys()
	live := in.VMs()
	for _, h := range append(append([]*cluster.VMHandle(nil), live...), e.retired...) {
		st := h.Cache.KVSStats()
		c.cacheKVS.GetRPCs += st.GetRPCs
		c.cacheKVS.PutRPCs += st.PutRPCs
		c.cacheKVS.MultiGetRPCs += st.MultiGetRPCs
		c.cacheKVS.MultiGetKeys += st.MultiGetKeys
		c.cacheLookups += h.Cache.Stats.Hits + h.Cache.Stats.Misses
		for _, t := range h.Threads {
			c.execCompleted += t.Completed()
			c.memoHits += t.MemoHits()
		}
	}
	for _, h := range live {
		c.residentKeys += len(h.Cache.Keys())
	}
	if in.Monitor != nil {
		c.monitorKVS = in.Monitor.KVSStats()
		c.monitorEvents = len(in.Monitor.Events)
	}
	for _, s := range in.Schedulers() {
		c.reexecutions += s.Reexecutions()
		c.inflight += s.Inflight() + s.InflightSingles()
		c.knownThreads += s.KnownThreads()
	}
	c.vms = in.VMCount()
	c.netNodes = in.Net.NodeCount()
	return c
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countMetrics derives the deterministic per-layer counts of one
// episode: deltas over the measured phase for work counters, readings
// at its end for levels. Traced and untraced runs of one seed must
// agree on every one of them.
func countMetrics(o *outcome) map[string]float64 {
	b, a := o.before, o.after
	req := float64(o.simReqs)
	spawns := a.kernel.Spawns - b.kernel.Spawns
	reuses := a.kernel.Reuses - b.kernel.Reuses
	lookups := float64(a.cacheLookups - b.cacheLookups)
	fetched := float64(a.cacheKVS.GetRPCs - b.cacheKVS.GetRPCs + a.cacheKVS.MultiGetKeys - b.cacheKVS.MultiGetKeys)
	mon := func(s anna.ClientStats) int64 { return s.GetRPCs + s.PutRPCs + s.MultiGetRPCs }
	return map[string]float64{
		"vtime.dispatches":         float64(a.kernel.Dispatches - b.kernel.Dispatches),
		"vtime.timer_fires":        float64(a.kernel.TimerFires - b.kernel.TimerFires),
		"vtime.spawns":             float64(spawns),
		"vtime.proc_reuse_frac":    ratio(float64(reuses), float64(spawns+reuses)),
		"vtime.live_procs_end":     float64(a.kernel.LiveProcs),
		"simnet.msgs":              float64(a.msgs - b.msgs),
		"simnet.bytes":             float64(a.bytes - b.bytes),
		"simnet.msgs_per_simreq":   ratio(float64(a.msgs-b.msgs), req),
		"simnet.dropped":           float64(a.dropped - b.dropped),
		"codec.struct_encodes":     float64(a.codec.StructEncodes - b.codec.StructEncodes),
		"codec.struct_decodes":     float64(a.codec.StructDecodes - b.codec.StructDecodes),
		"codec.gob_ops":            float64(a.codec.GobEncodes + a.codec.GobDecodes - b.codec.GobEncodes - b.codec.GobDecodes),
		"anna.stored_keys":         float64(a.storedKeys),
		"anna.cache_get_rpcs":      float64(a.cacheKVS.GetRPCs - b.cacheKVS.GetRPCs),
		"anna.cache_multiget_keys": float64(a.cacheKVS.MultiGetKeys - b.cacheKVS.MultiGetKeys),
		"anna.cache_put_rpcs":      float64(a.cacheKVS.PutRPCs - b.cacheKVS.PutRPCs),
		"anna.monitor_rpcs":        float64(mon(a.monitorKVS) - mon(b.monitorKVS)),
		"cache.resident_keys":      float64(a.residentKeys),
		"cache.miss_frac":          ratio(fetched, lookups),
		"executor.completed":       float64(a.execCompleted - b.execCompleted),
		"executor.memo_hit_frac":   ratio(float64(a.memoHits-b.memoHits), lookups),
		"scheduler.reexecutions":   float64(a.reexecutions - b.reexecutions),
		"scheduler.inflight_end":   float64(a.inflight),
		"scheduler.known_threads":  float64(a.knownThreads),
		"monitor.events":           float64(a.monitorEvents - b.monitorEvents),
		"cluster.vms_end":          float64(a.vms),
		"cluster.net_nodes_end":    float64(a.netNodes),
		"traffic.issued":           float64(a.trafficIssued),
		"traffic.lost":             float64(a.trafficLost),
		"bench.sim_requests":       req,
	}
}
