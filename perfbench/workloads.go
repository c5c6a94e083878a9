package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	cb "cloudburst"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/simnet"
	"cloudburst/internal/trace"
	"cloudburst/internal/traffic"
	apps "cloudburst/internal/workload"
)

// workloads lists the benchmark's scenarios. Each stresses a different
// set of layers (see README.md for the layer-to-metric map).
var workloads = []*workload{autoscaleZipf(), openloopDAGMix(), retwisCausal()}

// findWorkload returns the named workload.
func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// slice is the simulated time between host-time stamps, unless a
// workload sets its own.
const slice = 10 * time.Millisecond

// value is the int64 a key holds, derived from the seed and the key's
// index so results can be recomputed from the request's inputs alone.
func value(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z^(z>>31)) >> 8
}

// newConfig starts every workload's cluster configuration.
func newConfig(e *episode) cb.Config {
	cfg := cb.DefaultConfig()
	cfg.Seed = e.seed
	if e.traced {
		cfg.Trace = trace.New()
	}
	return cfg
}

// boot creates the episode's cluster as the "boot" phase.
func boot(e *episode, cfg cb.Config) {
	e.timed("boot", func() {
		e.c = cb.NewCluster(cfg)
		e.in = e.c.Internal()
	})
}

// must stops the benchmark on a set-up error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// closedLoop starts n clients. Client i gets its own seeded generator
// from newClient and issues one request at a time through it, passing
// a request ID and pausing think after each, until the episode stops.
func closedLoop(e *episode, n int, think time.Duration, newClient func(rng *rand.Rand) func(cl *cb.Client, id string)) {
	for i := 0; i < n; i++ {
		one := newClient(rand.New(rand.NewSource(e.seed*7919 + int64(i))))
		e.led.running++
		e.spawn("bench/client-"+strconv.Itoa(i), func(cl *cb.Client) {
			defer func() { e.led.running-- }()
			for seq := 0; !e.stop; seq++ {
				one(cl, "c"+strconv.Itoa(i)+"-"+strconv.Itoa(seq))
				if think > 0 {
					cl.Sleep(think)
				}
			}
		})
	}
}

// drainClosed advances simulated time until every client has returned
// from its last request.
func drainClosed(e *episode) drained {
	e.c.Run(func(cl *cb.Client) {
		for e.led.running > 0 {
			cl.Sleep(slice)
		}
	})
	return drained{simReqs: -1}
}

// --- autoscale-zipf ------------------------------------------------------

type zipfParams struct{ vms, keys, clients int }

func zipfSize(tiny bool) zipfParams {
	if tiny {
		return zipfParams{vms: 2, keys: 2000, clients: 16}
	}
	return zipfParams{vms: 3, keys: 40_000, clients: 32}
}

func zipfKey(i int) string { return "zk" + strconv.Itoa(i) }

// autoscaleZipf is a scaled-down fig7: closed-loop clients overload a
// small fleet so the monitor adds VMs mid-run, over a keyspace far
// larger than any executor cache.
func autoscaleZipf() *workload {
	var p zipfParams
	return &workload{
		name: "autoscale-zipf",
		why:  "Anna's per-tick key sort over a large preloaded Zipf keyspace dominates; the monitor adds VMs mid-run",
		loop: "closed",
		size: func(tiny bool) string {
			p := zipfSize(tiny)
			return fmt.Sprintf("%d keys on 4 Anna nodes, %d clients, %d VMs and 2 more mid-run", p.keys, p.clients, p.vms)
		},
		// Short slices keep the episode short: Anna's ticks cost the same
		// per simulated second whatever the load. The monitor's first
		// tick, 5 s after boot, adds the VMs; they join 1 s later, before
		// the last slice.
		slice: 5 * time.Millisecond,
		setup: func(e *episode, tiny bool) {
			p = zipfSize(tiny)
			cfg := newConfig(e)
			cfg.VMs = p.vms
			cfg.AnnaNodes = 4
			cfg.Autoscale = true
			cfg.VMSpinUp = time.Second
			cfg.ScaleUpVMs = 2
			cfg.MaxVMs = p.vms + 4
			cfg.MinPinned = 2
			boot(e, cfg)
			e.timed("register", func() {
				// Read two refs, write one key with the value it already
				// holds (so later reads stay recomputable), return the sum.
				must(e.c.RegisterFunction("zread", func(ctx *cb.Ctx, args []any) (any, error) {
					ctx.Compute(10 * time.Millisecond)
					if err := ctx.Put(args[2].(string), args[3]); err != nil {
						return nil, err
					}
					return args[0].(int64) + args[1].(int64), nil
				}))
				must(e.c.RegisterDAG(cb.LinearDAG("zread-dag", "zread"), 3*p.vms))
			})
			e.timed("preload", func() {
				const loaders = 16
				e.c.RunN(loaders, func(w int, cl *cb.Client) {
					for i := w; i < p.keys; i += loaders {
						must(cl.Put(zipfKey(i), value(e.seed, i)))
					}
				})
			})
		},
		start: func(e *episode) {
			closedLoop(e, p.clients, 0, func(rng *rand.Rand) func(*cb.Client, string) {
				z := rand.NewZipf(rng, 1.0001, 1, uint64(p.keys-1))
				return func(cl *cb.Client, id string) {
					a, b, w := int(z.Uint64()), int(z.Uint64()), int(z.Uint64())
					args := map[string][]any{"zread": {
						cb.Ref(zipfKey(a)), cb.Ref(zipfKey(b)), zipfKey(w), value(e.seed, w),
					}}
					t0 := cl.Now()
					got, err := cl.InvokeDAG("zread-dag", args).Wait()
					if err == nil {
						err = mismatch(got, e.expect(value(e.seed, a)+value(e.seed, b)))
					}
					e.led.record(id, cl.Now()-t0, got, err)
				}
			})
		},
		finish: drainClosed,
		check: func(e *episode, o *outcome) []string {
			if o.after.vms <= p.vms {
				return []string{fmt.Sprintf("autoscaler added no VMs (%d at the end)", o.after.vms)}
			}
			return nil
		},
	}
}

// --- openloop-dagmix -----------------------------------------------------

type dagmixParams struct {
	vms, keys, workers int
	rate               float64
}

func dagmixSize(tiny bool) dagmixParams {
	if tiny {
		return dagmixParams{vms: 3, keys: 60, workers: 2, rate: 100}
	}
	return dagmixParams{vms: 6, keys: 400, workers: 4, rate: 500}
}

// Every dagmix size sends 30% of requests as 2-function DAGs and
// crashes a VM before measured slice 300.
const (
	dagPct  = 30
	crashAt = 300
)

func hotKey(i int) string { return "hk" + strconv.Itoa(i) }

// openloopDAGMix is a fig13-shaped open loop held below the knee on a
// sharded control plane, with one VM crashed and warm-restarted
// partway through so §4.5 re-execution runs.
func openloopDAGMix() *workload {
	var (
		p     dagmixParams
		rec   *traffic.Recorder
		enc   = new(codec.Counters) // the benchmark's own argument encodes
		ended bool
	)
	return &workload{
		name: "openloop-dagmix",
		why:  "Poisson arrivals below the knee on 4 scheduler shards with a VM crash: per-request vtime, simnet, codec and scheduler cost",
		loop: "open",
		size: func(tiny bool) string {
			p := dagmixSize(tiny)
			return fmt.Sprintf("Poisson %.0f req/s, %d%% 2-function DAGs, %d hot keys, %d VMs, 4 schedulers, crash before slice %d",
				p.rate, dagPct, p.keys, p.vms, crashAt)
		},
		slice: slice,
		setup: func(e *episode, tiny bool) {
			p = dagmixSize(tiny)
			rec, ended = nil, false
			cfg := newConfig(e)
			cfg.VMs = p.vms
			cfg.ThreadsPerVM = 3
			cfg.Schedulers = 4
			cfg.MonitorShards = 3
			cfg.SchedulerDispatchCost = 3 * time.Millisecond
			cfg.AnnaNodes = 4
			// A fixed fleet with every function pinned everywhere: the
			// monitor observes and scans but never changes capacity.
			cfg.Autoscale = true
			cfg.MaxVMs = p.vms
			cfg.MinPinned = p.vms * 3
			cfg.VMSpinUp = 2 * time.Second
			cfg.DAGTimeout = time.Second
			cfg.StaleAfter = 3 * time.Second
			boot(e, cfg)
			e.timed("register", func() {
				// sat1 checks the ref it resolved against the value the
				// benchmark expects and returns 3v+1; sat2 checks that
				// result and adds 7. A wrong value fails the request.
				must(e.c.RegisterFunction("sat1", func(ctx *cb.Ctx, args []any) (any, error) {
					ctx.Compute(1500 * time.Microsecond)
					v := args[0].(int64)
					if err := mismatch(v, args[1]); err != nil {
						e.led.note(ctx.ReqID() + ": " + err.Error())
						return nil, err
					}
					e.led.write(ctx.ReqID()+"/sat1", int64(ctx.Now()), "")
					return 3*v + 1, nil
				}))
				must(e.c.RegisterFunction("sat2", func(ctx *cb.Ctx, args []any) (any, error) {
					ctx.Compute(1500 * time.Microsecond)
					if err := mismatch(args[1], args[0]); err != nil {
						e.led.note(ctx.ReqID() + ": " + err.Error())
						return nil, err
					}
					e.led.write(ctx.ReqID()+"/sat2", int64(ctx.Now()), "")
					return args[1].(int64) + 7, nil
				}))
				must(e.c.RegisterDAG(cb.LinearDAG("satchain", "sat1", "sat2"), p.vms*3))
			})
			e.timed("preload", func() {
				e.c.Run(func(cl *cb.Client) {
					for i := 0; i < p.keys; i++ {
						must(cl.Put(hotKey(i), value(e.seed, i)))
					}
				})
			})
		},
		start: func(e *episode) {
			rng := rand.New(rand.NewSource(e.seed*104729 + 1))
			zipf := rand.NewZipf(rng, 1.3, 1, uint64(p.keys-1))
			arg := func(v int64) core.Arg { return core.Arg{Val: enc.MustEncode(v)} }
			window := warmupFor + slices*slice
			spec := traffic.Spec{
				Name:     "bench",
				Workers:  p.workers,
				Arrivals: traffic.NewPoisson(e.seed*1000+7, p.rate),
				Window:   window,
				Next: func(n int64) traffic.Invocation {
					i := int(zipf.Uint64())
					want := value(e.seed, i)
					sat1 := []core.Arg{{Ref: hotKey(i)}, arg(e.expect(want))}
					if rng.Intn(100) < dagPct {
						return traffic.Invocation{DAG: "satchain", DAGArgs: map[string][]core.Arg{
							"sat1": sat1,
							"sat2": {arg(e.expect(3*want + 1))},
						}}
					}
					return traffic.Invocation{Function: "sat1", Args: sat1}
				},
				RetryAfter:  3 * time.Second,
				MaxAttempts: 2,
				Drain:       5 * time.Second,
				Trace:       e.c.Trace(),
			}
			eps := make([]*simnet.Endpoint, p.workers)
			for i := range eps {
				eps[i] = e.in.NewClientEndpoint()
			}
			e.spawn("bench/pool", func(*cb.Client) {
				rec = traffic.NewPool(e.in.K, e.in, eps, spec).Run()
				ended = true
			})
		},
		mid: func(e *episode, i int) {
			if i != crashAt {
				return
			}
			h := e.in.VMs()[1]
			e.retired = append(e.retired, h)
			e.in.WarmRestartVM(h.Name)
		},
		finish: func(e *episode) drained {
			e.c.Run(func(cl *cb.Client) {
				for !ended {
					cl.Sleep(slice)
				}
			})
			e.led.attempted += rec.Issued
			e.led.completed += rec.Done
			e.led.failed += rec.Failed + rec.Lost
			if rec.Lost > 0 {
				e.led.note(fmt.Sprintf("%d requests lost", rec.Lost))
			}
			// The pool keeps no per-request results, so the digest takes
			// its latency histogram and counters.
			c := rec.Capsule("bench")
			fmt.Fprint(e.led.digest, c.Counts, c.SumNS, c.MaxNS, c.PerSec, c.Issued, c.Done, c.Failed, c.Lost)
			// PerSec counts completions by second since the pool started,
			// at the beginning of the warm-up.
			from := int(warmupFor / time.Second)
			to := from + int(slices*slice/time.Second)
			var measured int64
			for s := from; s < to && s < len(rec.PerSec); s++ {
				measured += int64(rec.PerSec[s])
			}
			return drained{simReqs: measured, issued: rec.Issued, lost: rec.Lost}
		},
		check: func(e *episode, o *outcome) []string {
			if n := o.after.reexecutions - o.before.reexecutions; n == 0 {
				return []string{"the VM crash caused no §4.5 re-execution"}
			}
			return nil
		},
	}
}

// --- retwis-causal -------------------------------------------------------

type retwisParams struct{ users, tweets, follows, clients int }

func retwisSize(tiny bool) retwisParams {
	if tiny {
		return retwisParams{users: 40, tweets: 100, follows: 5, clients: 3}
	}
	return retwisParams{users: 300, tweets: 1200, follows: 10, clients: 4}
}

// Every retwis size makes 30% of requests posts, and each client
// pauses 20 ms after each request.
const (
	postPct     = 30
	retwisThink = 20 * time.Millisecond
)

// retwisCausal runs Retwis under distributed session causal
// consistency with a post share well above fig11's 10%, so causal
// capsules are merged and many keys are dirty on every Anna tick.
func retwisCausal() *workload {
	var rt retwisRun
	return &workload{
		name: "retwis-causal",
		why:  "Retwis under Causal with 30% posts: vector-clock capsules merged in cache, lattice and codec, many dirty keys per Anna tick",
		loop: "closed",
		size: func(tiny bool) string {
			p := retwisSize(tiny)
			return fmt.Sprintf("%d users following %d each, %d preloaded tweets, %d clients with %v think time, %d%% posts",
				p.users, p.follows, p.tweets, p.clients, retwisThink, postPct)
		},
		slice: slice,
		setup: func(e *episode, tiny bool) {
			rt = retwisRun{e: e, p: retwisSize(tiny), r: apps.DefaultRetwis()}
			rt.r.Users, rt.r.Tweets, rt.r.Follows = rt.p.users, rt.p.tweets, rt.p.follows
			cfg := newConfig(e)
			cfg.Mode = cb.Causal
			cfg.VMs = 5
			cfg.ThreadsPerVM = 2
			cfg.AnnaNodes = 2
			boot(e, cfg)
			e.timed("register", func() { must(rt.r.Register(e.c)) })
			e.timed("preload", func() {
				rt.g = retwisGraph(rt.r, rand.New(rand.NewSource(e.seed)))
				rt.r.Preload(e.c, rt.g)
			})
		},
		start: func(e *episode) {
			closedLoop(e, rt.p.clients, retwisThink, func(rng *rand.Rand) func(*cb.Client, string) {
				return func(cl *cb.Client, id string) { rt.request(cl, rng, id) }
			})
		},
		finish: drainClosed,
		check:  func(*episode, *outcome) []string { return nil },
	}
}

// retwisGraph generates the preloaded data set as Retwis.Generate does,
// Zipf-popular follows and half the tweets replies to earlier ones,
// except that the tweets' authors step through the users 7 apart. Drawn
// at random, how many tweets the few most-followed users wrote set how
// many timeline entries a seed preloaded (10.7k to 14.3k over five
// seeds), and with them the live heap and garbage collection's cost.
func retwisGraph(r apps.Retwis, rng *rand.Rand) *apps.Graph {
	g := r.Generate(rng)
	g.PostIDs, g.PostOf = nil, map[string]map[string]string{}
	g.Timelines = make([][]string, r.Users)
	deliver := func(u int, id string) {
		g.Timelines[u] = append([]string{id}, g.Timelines[u]...)
		if len(g.Timelines[u]) > r.TimelineCap {
			g.Timelines[u] = g.Timelines[u][:r.TimelineCap]
		}
	}
	for i := 0; i < r.Tweets; i++ {
		author := i * 7 % r.Users
		id := fmt.Sprintf("seed-%d", i)
		reply := ""
		if i%2 == 1 {
			reply = g.PostIDs[rng.Intn(len(g.PostIDs))]
		}
		g.PostIDs = append(g.PostIDs, id)
		g.PostOf[id] = map[string]string{"author": fmt.Sprint(author), "text": fmt.Sprintf("tweet %d", i), "reply": reply}
		deliver(author, id)
		for _, f := range g.Followers[author] {
			deliver(f, id)
		}
	}
	return g
}

// retwisRun is one retwis-causal episode's generated inputs.
type retwisRun struct {
	e     *episode
	p     retwisParams
	r     apps.Retwis
	g     *apps.Graph
	sent  int // requests issued so far, by every client
	posts int // posts among them
}

// request issues one Retwis request, a timeline read or a post, and
// checks its result. Posts are exactly postPct of every 100 requests.
// Their authors step through the users 7 apart, so every user posts once
// per round and the most-followed users (the lowest indices) are spread
// evenly over it. Drawing either at random made a run's cost hinge on
// the draw: posts cost far more than reads, and the few most-followed
// users' posts most of all.
func (rt *retwisRun) request(cl *cb.Client, rng *rand.Rand, id string) {
	u := rng.Intn(rt.p.users)
	t0 := cl.Now()
	rt.sent++
	if rt.sent%100 < postPct {
		u = rt.posts * 7 % rt.p.users
		rt.posts++
		reply := ""
		if rng.Intn(2) == 0 {
			reply = rt.g.PostIDs[rng.Intn(len(rt.g.PostIDs))]
		}
		got, err := cl.Invoke("rt-post", []any{u, "post " + id, reply}).Wait()
		if s, ok := got.(string); err == nil && (!ok || !strings.HasPrefix(s, "exec-") || !strings.Contains(s, "#")) {
			err = fmt.Errorf("post returned %v, want an invocation ID", got)
		}
		rt.e.led.record(id, cl.Now()-t0, got, err)
		return
	}
	got, err := cb.As[apps.TimelineResult](cl.Invoke("rt-timeline", []any{u}))
	if err == nil {
		err = checkTimeline(got, len(rt.g.Timelines[u]), rt.r.FetchPosts, rt.e.corrupt)
	}
	rt.e.led.record(id, cl.Now()-t0, got, err)
}

// checkTimeline verifies one timeline read. A causal read never shows a
// reply without its parent, and timelines only grow, so at least the
// preloaded posts (up to the fetch limit) are readable.
func checkTimeline(got apps.TimelineResult, preloaded, fetch int, corrupt bool) error {
	want := min(preloaded, fetch)
	if corrupt {
		want = fetch + 1
	}
	switch {
	case got.Anomalies != 0:
		return fmt.Errorf("timeline shows %d replies without their parent", got.Anomalies)
	case got.Posts < want || got.Posts > fetch:
		return fmt.Errorf("timeline shows %d posts, want %d to %d", got.Posts, want, fetch)
	}
	return nil
}
