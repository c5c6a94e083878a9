package anna

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// TestDirtyTicksSendOrder pins the order of the gossip and push ticks:
// dirty memory-tier keys sorted, then dirty disk-tier keys sorted. Keys
// turn dirty through put, gossip and transfer; a dirty key deleted and
// created again clean is never sent, and both dirty sets are empty after
// the ticks.
func TestDirtyTicksSendOrder(t *testing.T) {
	k := vtime.NewKernel(7)
	t.Cleanup(k.Stop)
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(200 * time.Microsecond)})
	// Two owners per key on a two-node ring: every key this node
	// gossips goes to the sink, which the test reads in arrival order.
	ring := NewRing(2, 8)
	ring.AddNode("anna-0")
	ring.AddNode("sink")
	sink := net.AddNode("sink")
	cache := net.AddNode("cache-0")
	client := net.AddNode("client")
	cfg := DefaultNodeConfig()
	cfg.MemCapacity = 4 * 300 // about four values in memory
	cfg.GossipInterval = time.Hour
	cfg.PushInterval = time.Hour // the test runs both ticks itself
	n := NewNode(k, net.AddNode("anna-0"), ring, cfg)
	n.Start()

	val := func(i int) *lattice.LWW {
		return lattice.NewLWW(lattice.Timestamp{Clock: int64(i + 1)}, make([]byte, 256))
	}
	drain := func(ep *simnet.Endpoint) []string {
		k.Sleep(10 * time.Millisecond)
		var keys []string
		for m, ok := ep.TryRecv(); ok; m, ok = ep.TryRecv() {
			switch p := m.Payload.(type) {
			case GossipMsg:
				keys = append(keys, p.Key)
			case KeyUpdatePush:
				keys = append(keys, p.Key)
			default:
				t.Errorf("unexpected message %T", m.Payload)
			}
		}
		return keys
	}
	// expect lists the keys of set in tick order, read off the tiers,
	// and counts them per tier (memory, disk).
	expect := func(set []string) (order []string, tiers [2]int) {
		var onMem, onDisk []string
		for _, key := range set {
			switch exists, d := n.HasKey(key); {
			case !exists:
				t.Errorf("dirty key %s not stored", key)
			case d:
				onDisk = append(onDisk, key)
			default:
				onMem = append(onMem, key)
			}
		}
		slices.Sort(onMem)
		slices.Sort(onDisk)
		return append(onMem, onDisk...), [2]int{len(onMem), len(onDisk)}
	}

	// Kernel processes must not call t.Fatal (Goexit would strand the
	// scheduler), so the run records what it saw and checks come after.
	var wantGossip, wantPush, gotGossip, gotPush, idle []string
	var gossipTiers, pushTiers [2]int
	k.Run("main", func() {
		var all []string
		for _, p := range []string{"g", "p", "t"} {
			for i := 0; i < 4; i++ {
				all = append(all, fmt.Sprintf("%s-%d", p, i))
			}
		}
		client.Send("anna-0", KeysetUpdate{Cache: "cache-0", Added: all}, 64)
		// Writes go in key order, so the oldest demote to disk and the
		// newest stay in memory: tier order differs from key order.
		for i, key := range all {
			switch key[0] {
			case 'g':
				client.Send("anna-0", GossipMsg{Key: key, Lat: val(i)}, 300)
			case 'p':
				if _, err := client.Call("anna-0", PutReq{Key: key, Lat: val(i)}, 300, time.Second); err != nil {
					t.Error(err)
					return
				}
			case 't':
				client.Send("anna-0", TransferMsg{Entries: []TransferEntry{{Key: key, Lat: val(i)}}}, 300)
			}
			k.Sleep(time.Millisecond) // distinct LRU timestamps
		}
		// Drop two dirty keys, one per tier, and create them again
		// clean the way Preload does.
		for _, key := range []string{"p-1", "t-3"} {
			if _, err := client.Call("anna-0", DeleteReq{Key: key}, 16, time.Second); err != nil {
				t.Error(err)
				return
			}
			n.st.merge(key, val(100), k.Now())
		}

		var repl, push []string
		for _, key := range all {
			if key == "p-1" || key == "t-3" {
				continue
			}
			push = append(push, key)
			if key[0] != 'g' { // replicas do not re-gossip
				repl = append(repl, key)
			}
		}
		wantGossip, gossipTiers = expect(repl)
		wantPush, pushTiers = expect(push)

		n.gossipTick()
		n.pushTick()
		gotGossip, gotPush = drain(sink), drain(cache)
		if len(n.st.dirtyRepl) != 0 || len(n.st.dirtyPush) != 0 {
			t.Errorf("dirty sets after ticks: repl=%d push=%d, want 0",
				len(n.st.dirtyRepl), len(n.st.dirtyPush))
		}
		// A second round with nothing written sends nothing.
		n.gossipTick()
		n.pushTick()
		idle = append(drain(sink), drain(cache)...)
	})

	if gossipTiers[0] == 0 || gossipTiers[1] == 0 || pushTiers[0] == 0 || pushTiers[1] == 0 {
		t.Fatalf("dirty keys span one tier (gossip mem/disk=%v, push=%v); resize the test",
			gossipTiers, pushTiers)
	}
	if slices.IsSorted(wantGossip) || slices.IsSorted(wantPush) {
		t.Fatal("tier order equals key order; the test would not pin it")
	}
	if !slices.Equal(gotGossip, wantGossip) {
		t.Errorf("gossip order = %v, want %v", gotGossip, wantGossip)
	}
	if !slices.Equal(gotPush, wantPush) {
		t.Errorf("push order = %v, want %v", gotPush, wantPush)
	}
	if len(idle) != 0 {
		t.Errorf("idle ticks sent %v", idle)
	}
}
