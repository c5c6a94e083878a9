package anna

import (
	"sort"
	"time"

	"cloudburst/internal/codec"
	"cloudburst/internal/hook"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// NodeConfig carries a storage node's service-time and policy constants.
type NodeConfig struct {
	// GetServiceTime and PutServiceTime model per-operation server CPU
	// cost; requests on one node are served serially, so queueing delay
	// emerges under load.
	GetServiceTime time.Duration
	PutServiceTime time.Duration
	// DiskPenalty is the extra latency for an operation that touches the
	// disk tier.
	DiskPenalty time.Duration
	// GossipInterval is how often dirty keys are propagated to replicas.
	GossipInterval time.Duration
	// PushInterval is how often dirty keys are pushed to subscribed
	// caches via the key→cache index (§4.2).
	PushInterval time.Duration
	// MemCapacity bounds the memory tier in bytes; 0 means unbounded.
	MemCapacity int
	// StatsWindow is the load-report aggregation window.
	StatsWindow time.Duration
	// HotKeyTopN bounds the hot-key list in stats reports.
	HotKeyTopN int
	// ServeBandwidth is the per-node value (de)serialization throughput
	// in bytes/second: large values cost server time proportional to
	// size, which is what separates cold cache misses from hot hits in
	// §6.1.2.
	ServeBandwidth float64
	// TxnSweepInterval is how often the node tries to resolve in-doubt
	// prepared transactions from the commit log.
	TxnSweepInterval time.Duration
	// TxnPrepareTTL is how long a prepared transaction may wait for its
	// coordinator's decision before the sweep resolves it itself.
	TxnPrepareTTL time.Duration
	// Hooks is the cluster's fault-injection point-cut registry (nil
	// disables point-cuts at zero cost).
	Hooks *hook.Registry
	// Codec receives this node's commit-log decodes on the owning
	// cluster's counters (nil counts only the process aggregate).
	Codec *codec.Counters
}

// DefaultNodeConfig returns the calibrated defaults (see DESIGN.md §5).
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		GetServiceTime: 25 * time.Microsecond,
		PutServiceTime: 35 * time.Microsecond,
		DiskPenalty:    1500 * time.Microsecond,
		GossipInterval: 50 * time.Millisecond,
		PushInterval:   100 * time.Millisecond,
		StatsWindow:    time.Second,
		HotKeyTopN:     16,
		ServeBandwidth: 300e6,
		// TxnSweepInterval/TxnPrepareTTL stay zero (sweep disabled):
		// the cluster enables them in Transactional mode only, so every
		// other mode's event schedule is untouched by the txn plane.
	}
}

// Node is one Anna storage node: a serially-served lattice store with
// replica gossip, the Cloudburst key→cache index, and tiered storage.
// Requests and gossip dispatch through a serial simnet.Dispatcher, so
// per-operation service time queues at the node exactly as the paper's
// single-threaded storage servers do.
type Node struct {
	id   simnet.NodeID
	ep   *simnet.Endpoint
	k    *vtime.Kernel
	ring *Ring
	cfg  NodeConfig
	st   *tieredStore
	disp *simnet.Dispatcher

	// index maps each locally-owned key to the caches that reported
	// caching it. Partitioned across nodes with the key space.
	index map[string]map[simnet.NodeID]bool

	// Transaction participant state (see txn.go): prepared write sets
	// held outside the store (invisible to readers) and the per-key
	// prepare locks guarding them.
	prepared map[string]*preparedTxn
	locks    map[string]string // key → holding txn id

	ops         int64
	windowStart vtime.Time
}

// NewNode creates (but does not start) a storage node bound to an
// endpoint.
func NewNode(k *vtime.Kernel, ep *simnet.Endpoint, ring *Ring, cfg NodeConfig) *Node {
	n := &Node{
		id:       ep.ID(),
		ep:       ep,
		k:        k,
		ring:     ring,
		cfg:      cfg,
		st:       newTieredStore(cfg.MemCapacity),
		index:    make(map[string]map[simnet.NodeID]bool),
		prepared: make(map[string]*preparedTxn),
		locks:    make(map[string]string),
	}
	n.disp = simnet.NewDispatcher(ep, string(n.id))
	simnet.OnRequest(n.disp, n.handleGet)
	simnet.OnRequest(n.disp, n.handleMultiGet)
	simnet.OnRequest(n.disp, n.handlePut)
	simnet.OnRequest(n.disp, n.handleDelete)
	simnet.OnRequest(n.disp, n.handleSetRemove)
	simnet.OnRequest(n.disp, n.handleStats)
	simnet.OnRequest(n.disp, n.handleTxnPrepare)
	simnet.OnMessage(n.disp, n.handleTxnDecision)
	simnet.OnMessage(n.disp, n.handleGossip)
	simnet.OnMessage(n.disp, n.handleKeyset)
	simnet.OnMessage(n.disp, n.handleTransfer)
	return n
}

// ID returns the node's network id.
func (n *Node) ID() simnet.NodeID { return n.id }

// Start launches the node's serve, gossip, and push processes.
func (n *Node) Start() {
	n.windowStart = n.k.Now()
	n.disp.Start()
	n.disp.Every("gossip", n.cfg.GossipInterval, n.gossipTick)
	n.disp.Every("push", n.cfg.PushInterval, n.pushTick)
	if n.cfg.TxnSweepInterval > 0 {
		n.disp.Every("txn-sweep", n.cfg.TxnSweepInterval, n.txnSweepTick)
	}
}

// Stop makes the node stop processing after in-flight work; used for
// scale-in after its keys are drained.
func (n *Node) Stop() { n.disp.Stop() }

func (n *Node) handleGet(req *simnet.Request, b GetReq) {
	n.ops++
	e, fromDisk := n.st.get(b.Key, n.k.Now())
	if e == nil {
		n.k.Sleep(n.serviceTime(n.cfg.GetServiceTime, fromDisk, 0))
		req.Reply(GetResp{Key: b.Key, Found: false}, 24)
		return
	}
	n.k.Sleep(n.serviceTime(n.cfg.GetServiceTime, fromDisk, e.size))
	// Clone-on-egress copies only the capsule shell; the payload
	// bytes are immutable and shared with the caller (zero-copy
	// data plane).
	req.Reply(GetResp{Key: b.Key, Lat: e.lat.Clone(), Found: true}, 24+e.size)
}

func (n *Node) handleMultiGet(req *simnet.Request, b MultiGetReq) {
	// One round trip, full per-key service cost: batching saves
	// network round trips and per-request overhead, not server CPU.
	entries := make([]MultiGetEntry, 0, len(b.Keys))
	var svc time.Duration
	size := 24
	for _, key := range b.Keys {
		n.ops++
		e, fromDisk := n.st.get(key, n.k.Now())
		if e == nil {
			svc += n.serviceTime(n.cfg.GetServiceTime, fromDisk, 0)
			entries = append(entries, MultiGetEntry{Key: key})
			continue
		}
		svc += n.serviceTime(n.cfg.GetServiceTime, fromDisk, e.size)
		entries = append(entries, MultiGetEntry{Key: key, Lat: e.lat.Clone(), Found: true})
		size += 24 + e.size
	}
	n.k.Sleep(svc)
	req.Reply(MultiGetResp{Entries: entries}, size)
}

func (n *Node) handlePut(req *simnet.Request, b PutReq) {
	n.ops++
	e, fromDisk := n.st.merge(b.Key, b.Lat, n.k.Now())
	n.st.dirtyRepl[b.Key] = struct{}{}
	n.st.dirtyPush[b.Key] = struct{}{}
	n.k.Sleep(n.serviceTime(n.cfg.PutServiceTime, fromDisk, e.size))
	req.Reply(PutResp{OK: true}, 8)
}

func (n *Node) handleDelete(req *simnet.Request, b DeleteReq) {
	n.ops++
	ok := n.st.delete(b.Key)
	n.k.Sleep(n.serviceTime(n.cfg.PutServiceTime, false, 0))
	req.Reply(DeleteResp{OK: ok}, 8)
}

func (n *Node) handleSetRemove(req *simnet.Request, b SetRemoveReq) {
	n.ops++
	e, fromDisk := n.st.get(b.Key, n.k.Now())
	removed := false
	if e != nil {
		if s, isSet := e.lat.(*lattice.Set); isSet {
			for _, el := range b.Elems {
				if _, ok := s.Elems[el]; ok {
					delete(s.Elems, el)
					removed = true
				}
			}
			if removed {
				// The dirty sets stay untouched: the client reaches every
				// owner itself, and pushing a shrunken set to replicas or
				// caches would be a union no-op anyway.
				n.st.resize(e)
			}
		}
	}
	n.k.Sleep(n.serviceTime(n.cfg.PutServiceTime, fromDisk, 0))
	req.Reply(SetRemoveResp{OK: removed}, 8)
}

func (n *Node) handleStats(req *simnet.Request, _ StatsReq) {
	req.Reply(n.stats(), 256)
}

func (n *Node) handleGossip(_ simnet.Message, b GossipMsg) {
	n.st.merge(b.Key, b.Lat, n.k.Now())
	// Replicas do not re-gossip (the writer reaches all owners),
	// but must push to their own subscribed caches.
	n.st.dirtyPush[b.Key] = struct{}{}
	n.k.Sleep(n.cfg.PutServiceTime)
}

func (n *Node) handleKeyset(_ simnet.Message, b KeysetUpdate) { n.applyKeyset(b) }

func (n *Node) handleTransfer(_ simnet.Message, b TransferMsg) {
	for _, te := range b.Entries {
		n.st.merge(te.Key, te.Lat, n.k.Now())
		n.st.dirtyPush[te.Key] = struct{}{}
		n.st.dirtyRepl[te.Key] = struct{}{} // propagate to any further new replicas
		for _, c := range te.Subscribers {
			n.subscribe(te.Key, simnet.NodeID(c))
		}
	}
}

func (n *Node) serviceTime(base time.Duration, disk bool, size int) time.Duration {
	d := base
	if disk {
		d += n.cfg.DiskPenalty
	}
	if n.cfg.ServeBandwidth > 0 && size > 0 {
		d += time.Duration(float64(size) / n.cfg.ServeBandwidth * float64(time.Second))
	}
	return d
}

func (n *Node) applyKeyset(u KeysetUpdate) {
	for _, key := range u.Added {
		n.subscribe(key, u.Cache)
	}
	for _, key := range u.Removed {
		if subs, ok := n.index[key]; ok {
			delete(subs, u.Cache)
			if len(subs) == 0 {
				delete(n.index, key)
			}
		}
	}
}

func (n *Node) subscribe(key string, cache simnet.NodeID) {
	subs, ok := n.index[key]
	if !ok {
		subs = make(map[simnet.NodeID]bool)
		n.index[key] = subs
	}
	subs[cache] = true
}

// gossipTick propagates dirty keys to the other owners — Anna's
// asynchronous replica propagation, run on the gossip cadence.
func (n *Node) gossipTick() {
	n.st.drainDirty(&n.st.dirtyRepl, func(e *entry) {
		for _, owner := range n.ring.OwnersFor(e.key) {
			if owner == n.id {
				continue
			}
			n.ep.Send(owner, GossipMsg{Key: e.key, Lat: e.lat.Clone()}, 24+e.size)
		}
	})
}

// pushTick sends updated keys to their subscribed caches (§4.2).
func (n *Node) pushTick() {
	n.st.drainDirty(&n.st.dirtyPush, func(e *entry) {
		for _, cache := range sortedSubs(n.index[e.key]) {
			n.ep.Send(cache, KeyUpdatePush{Key: e.key, Lat: e.lat.Clone()}, 24+e.size)
		}
	})
}

// sortedSubs returns a subscriber set in deterministic order.
func sortedSubs(subs map[simnet.NodeID]bool) []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(subs))
	for c := range subs {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stats builds a load report and resets the stats window.
func (n *Node) stats() StatsResp {
	elapsed := n.k.Now().Sub(n.windowStart).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	resp := StatsResp{
		Node:      n.id,
		Keys:      n.st.totalKeys(),
		MemBytes:  n.st.memBytes,
		DiskKeys:  len(n.st.disk),
		OpsPerSec: float64(n.ops) / elapsed,
		IndexKeys: len(n.index),
	}
	for _, subs := range n.index {
		for c := range subs {
			resp.IndexBytes += len(c) + 4
		}
	}
	// Hot keys by access count in this window.
	type kr struct {
		key string
		n   int64
	}
	var hot []kr
	n.st.each(func(e *entry, onDisk bool) {
		if e.accesses > 0 {
			hot = append(hot, kr{e.key, e.accesses})
			e.accesses = 0
		}
	})
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].n != hot[j].n {
			return hot[i].n > hot[j].n
		}
		return hot[i].key < hot[j].key
	})
	for i, h := range hot {
		if i >= n.cfg.HotKeyTopN {
			break
		}
		resp.HotKeys = append(resp.HotKeys, KeyRate{Key: h.key, PerSec: float64(h.n) / elapsed})
	}
	n.ops = 0
	n.windowStart = n.k.Now()
	return resp
}

// IndexOverheads returns the per-key index metadata size in bytes for
// every indexed key on this node — the quantity §6.1.4 reports the
// median/p99 of.
func (n *Node) IndexOverheads() []int {
	out := make([]int, 0, len(n.index))
	for _, subs := range n.index {
		b := 0
		for c := range subs {
			b += len(c) + 4
		}
		out = append(out, b)
	}
	return out
}

// transferForRing migrates keys this node no longer owns to their new
// primary, and re-marks still-owned keys dirty so gossip reaches any new
// replicas. Called by the manager after a ring change.
func (n *Node) transferForRing() {
	type out struct {
		dst     simnet.NodeID
		entries []TransferEntry
		bytes   int
	}
	batches := make(map[simnet.NodeID]*out)
	var dropped []string
	n.st.each(func(e *entry, onDisk bool) {
		owners := n.ring.OwnersFor(e.key)
		owned := false
		for _, o := range owners {
			if o == n.id {
				owned = true
				break
			}
		}
		if owned {
			n.st.dirtyRepl[e.key] = struct{}{}
			return
		}
		dst := owners[0]
		b, ok := batches[dst]
		if !ok {
			b = &out{dst: dst}
			batches[dst] = b
		}
		var subs []string
		for c := range n.index[e.key] {
			subs = append(subs, string(c))
		}
		sort.Strings(subs)
		b.entries = append(b.entries, TransferEntry{Key: e.key, Lat: e.lat.Clone(), Subscribers: subs})
		b.bytes += e.size + len(e.key)
		dropped = append(dropped, e.key)
	})
	dsts := make([]simnet.NodeID, 0, len(batches))
	for d := range batches {
		dsts = append(dsts, d)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	for _, d := range dsts {
		b := batches[d]
		n.ep.Send(b.dst, TransferMsg{Entries: b.entries}, b.bytes)
	}
	for _, key := range dropped {
		n.st.delete(key)
		delete(n.index, key)
	}
}

// StoredKeys returns the number of keys on the node (test hook).
func (n *Node) StoredKeys() int { return n.st.totalKeys() }

// CausalMetadataSizes samples the causal metadata overhead (vector
// clocks plus dependency sets) of every causal capsule stored on this
// node — the §6.2.1 measurement (median 624B, p99 7.1KB in the paper).
func (n *Node) CausalMetadataSizes() []int {
	var out []int
	n.st.each(func(e *entry, onDisk bool) {
		if c, ok := e.lat.(*lattice.Causal); ok {
			out = append(out, c.MetadataSize())
		}
	})
	return out
}

// HasKey reports whether key is stored locally, and on which tier.
func (n *Node) HasKey(key string) (exists, onDisk bool) {
	if _, ok := n.st.mem[key]; ok {
		return true, false
	}
	if _, ok := n.st.disk[key]; ok {
		return true, true
	}
	return false, false
}

// Peek returns a clone of the local lattice for key (test hook — real
// clients go through the network).
func (n *Node) Peek(key string) (lattice.Lattice, bool) {
	if e, ok := n.st.mem[key]; ok {
		return e.lat.Clone(), true
	}
	if e, ok := n.st.disk[key]; ok {
		return e.lat.Clone(), true
	}
	return nil, false
}
