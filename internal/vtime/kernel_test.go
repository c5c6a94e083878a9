package vtime

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	var at Time
	start := time.Now()
	k.Run("main", func() {
		k.Sleep(10 * time.Minute)
		at = k.Now()
	})
	if at != Time(10*time.Minute) {
		t.Fatalf("virtual time = %v, want 10m", at)
	}
	if real := time.Since(start); real > 2*time.Second {
		t.Fatalf("10 virtual minutes took %v of real time", real)
	}
}

func TestSleepOrdering(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	var order []string
	k.Run("main", func() {
		wg := NewWaitGroup(k)
		wg.Add(3)
		k.Go("c", func() { k.Sleep(3 * time.Millisecond); order = append(order, "c"); wg.Done() })
		k.Go("a", func() { k.Sleep(1 * time.Millisecond); order = append(order, "a"); wg.Done() })
		k.Go("b", func() { k.Sleep(2 * time.Millisecond); order = append(order, "b"); wg.Done() })
		wg.Wait()
	})
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Fatalf("wake order = %q, want abc", got)
	}
}

func TestEqualTimersFireInCreationOrder(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	var order []int
	k.Run("main", func() {
		for i := 0; i < 5; i++ {
			i := i
			k.After(time.Millisecond, func() { order = append(order, i) })
		}
		k.Sleep(2 * time.Millisecond)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("timer order = %v", order)
		}
	}
}

func TestAfterCancel(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	fired := false
	k.Run("main", func() {
		cancel := k.After(time.Millisecond, func() { fired = true })
		cancel()
		k.Sleep(5 * time.Millisecond)
	})
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestDeterministicTrace(t *testing.T) {
	trace := func() []int64 {
		k := NewKernel(42)
		defer k.Stop()
		var out []int64
		k.Run("main", func() {
			ch := NewChan[int64](k, -1)
			for i := 0; i < 10; i++ {
				k.Go("worker", func() {
					d := time.Duration(k.Rand().Intn(1000)) * time.Microsecond
					k.Sleep(d)
					ch.Send(int64(k.Now()))
				})
			}
			for i := 0; i < 10; i++ {
				v, _ := ch.Recv()
				out = append(out, v)
			}
		})
		return out
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestRunPreservesDaemonsAcrossCalls(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	ticks := 0
	k.Run("setup", func() {
		k.Go("daemon", func() {
			for {
				k.Sleep(time.Second)
				ticks++
			}
		})
		k.Sleep(3500 * time.Millisecond)
	})
	if ticks != 3 {
		t.Fatalf("ticks after first run = %d, want 3", ticks)
	}
	k.Run("again", func() { k.Sleep(2 * time.Second) })
	if ticks != 5 {
		t.Fatalf("ticks after second run = %d, want 5", ticks)
	}
}

func TestDeadlockPanics(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	k.Run("main", func() {
		ch := NewChan[int](k, 0)
		ch.Recv() // nobody will ever send
	})
}

func TestStopTerminatesParkedProcesses(t *testing.T) {
	k := NewKernel(1)
	k.Run("main", func() {
		ch := NewChan[int](k, 0)
		for i := 0; i < 4; i++ {
			k.Go("stuck", func() { ch.Recv() })
		}
		k.Sleep(time.Millisecond)
	})
	if len(k.live) != 4 {
		t.Fatalf("live procs before stop = %d, want 4", len(k.live))
	}
	k.Stop()
	if len(k.live) != 0 {
		t.Fatalf("live procs after stop = %d, want 0", len(k.live))
	}
}

func TestChanRendezvous(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	k.Run("main", func() {
		ch := NewChan[string](k, 0)
		k.Go("sender", func() {
			k.Sleep(time.Millisecond)
			ch.Send("hello")
		})
		before := k.Now()
		v, ok := ch.Recv()
		if !ok || v != "hello" {
			t.Errorf("Recv = %q, %v", v, ok)
		}
		if k.Now().Sub(before) != time.Millisecond {
			t.Errorf("receiver unblocked at %v", k.Now())
		}
	})
}

func TestChanBufferedBlocksWhenFull(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	k.Run("main", func() {
		ch := NewChan[int](k, 2)
		var sentThird Time
		k.Go("sender", func() {
			ch.Send(1)
			ch.Send(2)
			ch.Send(3) // must block until a receive frees space
			sentThird = k.Now()
		})
		k.Sleep(5 * time.Millisecond)
		if v, _ := ch.Recv(); v != 1 {
			t.Errorf("first recv = %d", v)
		}
		k.Sleep(time.Millisecond)
		if sentThird != Time(5*time.Millisecond) {
			t.Errorf("third send completed at %v, want 5ms", sentThird)
		}
		if v, _ := ch.Recv(); v != 2 {
			t.Errorf("second recv = %d", v)
		}
		if v, _ := ch.Recv(); v != 3 {
			t.Errorf("third recv = %d", v)
		}
	})
}

func TestChanUnboundedNeverBlocksSender(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	k.Run("main", func() {
		ch := NewChan[int](k, -1)
		for i := 0; i < 1000; i++ {
			if !ch.TrySend(i) {
				t.Fatalf("TrySend failed at %d", i)
			}
		}
		for i := 0; i < 1000; i++ {
			v, ok := ch.Recv()
			if !ok || v != i {
				t.Fatalf("recv %d = %d, %v", i, v, ok)
			}
		}
	})
}

func TestChanCloseWakesReceivers(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	k.Run("main", func() {
		ch := NewChan[int](k, -1)
		got := NewChan[bool](k, -1)
		k.Go("r", func() {
			_, ok := ch.Recv()
			got.Send(ok)
		})
		k.Sleep(time.Millisecond)
		ch.Close()
		ok, _ := got.Recv()
		if ok {
			t.Error("receiver saw ok=true on closed channel")
		}
	})
}

func TestChanRecvTimeout(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	k.Run("main", func() {
		ch := NewChan[int](k, -1)
		_, _, timedOut := ch.RecvTimeout(3 * time.Millisecond)
		if !timedOut {
			t.Error("expected timeout")
		}
		if k.Now() != Time(3*time.Millisecond) {
			t.Errorf("timeout at %v", k.Now())
		}
		k.Go("sender", func() { k.Sleep(time.Millisecond); ch.Send(7) })
		v, ok, timedOut := ch.RecvTimeout(10 * time.Millisecond)
		if timedOut || !ok || v != 7 {
			t.Errorf("RecvTimeout = %d %v %v", v, ok, timedOut)
		}
	})
}

func TestChanRecvTimeoutThenLateSendGoesToNextReceiver(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	k.Run("main", func() {
		ch := NewChan[int](k, -1)
		_, _, timedOut := ch.RecvTimeout(time.Millisecond)
		if !timedOut {
			t.Fatal("want timeout")
		}
		// The stale waiter must not swallow this value.
		ch.Send(42)
		v, ok := ch.Recv()
		if !ok || v != 42 {
			t.Fatalf("Recv after stale timeout = %d, %v", v, ok)
		}
	})
}

func TestMutexMutualExclusionAndFIFO(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	var order []int
	k.Run("main", func() {
		mu := NewMutex(k)
		wg := NewWaitGroup(k)
		mu.Lock()
		for i := 0; i < 3; i++ {
			i := i
			wg.Add(1)
			k.Go("locker", func() {
				mu.Lock()
				order = append(order, i)
				k.Sleep(time.Millisecond)
				mu.Unlock()
				wg.Done()
			})
		}
		k.Sleep(10 * time.Millisecond) // let all goroutines queue up
		mu.Unlock()
		wg.Wait()
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("lock order = %v, want FIFO", order)
		}
	}
}

func TestMutexTryLock(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	k.Run("main", func() {
		mu := NewMutex(k)
		if !mu.TryLock() {
			t.Fatal("TryLock on free mutex failed")
		}
		if mu.TryLock() {
			t.Fatal("TryLock on held mutex succeeded")
		}
		mu.Unlock()
		if !mu.TryLock() {
			t.Fatal("TryLock after Unlock failed")
		}
	})
}

func TestSemaphoreModelsOccupancy(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	var finished []Time
	k.Run("main", func() {
		sem := NewSemaphore(k, 2)
		wg := NewWaitGroup(k)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			k.Go("job", func() {
				sem.Acquire()
				k.Sleep(10 * time.Millisecond)
				sem.Release()
				finished = append(finished, k.Now())
				wg.Done()
			})
		}
		wg.Wait()
	})
	// Two permits, four 10ms jobs: completions at 10ms,10ms,20ms,20ms.
	want := []Time{Time(10 * time.Millisecond), Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(20 * time.Millisecond)}
	for i := range want {
		if finished[i] != want[i] {
			t.Fatalf("finish times = %v", finished)
		}
	}
}

func TestWaitGroupReleasesAllWaiters(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	released := 0
	k.Run("main", func() {
		wg := NewWaitGroup(k)
		wg.Add(1)
		inner := NewWaitGroup(k)
		for i := 0; i < 3; i++ {
			inner.Add(1)
			k.Go("waiter", func() { wg.Wait(); released++; inner.Done() })
		}
		k.Sleep(time.Millisecond)
		wg.Done()
		inner.Wait()
	})
	if released != 3 {
		t.Fatalf("released = %d, want 3", released)
	}
}

func TestYieldNowReordersFairly(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	var order []string
	k.Run("main", func() {
		wg := NewWaitGroup(k)
		wg.Add(2)
		k.Go("a", func() { order = append(order, "a1"); k.YieldNow(); order = append(order, "a2"); wg.Done() })
		k.Go("b", func() { order = append(order, "b1"); k.YieldNow(); order = append(order, "b2"); wg.Done() })
		wg.Wait()
	})
	want := []string{"a1", "b1", "a2", "b2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Errorf("Seconds = %v", tm.Seconds())
	}
	if tm.Milliseconds() != 1500 {
		t.Errorf("Milliseconds = %v", tm.Milliseconds())
	}
	if tm.Add(500*time.Millisecond) != Time(2*time.Second) {
		t.Errorf("Add failed")
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Errorf("Sub failed")
	}
}

func TestBlockingOutsideProcessPanics(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Sleep(time.Second) // not inside Run
}

func TestManyProcessesScale(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	const n = 2000
	total := 0
	k.Run("main", func() {
		wg := NewWaitGroup(k)
		for i := 0; i < n; i++ {
			wg.Add(1)
			i := i
			k.Go("p", func() {
				k.Sleep(time.Duration(i%7) * time.Millisecond)
				total++
				wg.Done()
			})
		}
		wg.Wait()
	})
	if total != n {
		t.Fatalf("total = %d, want %d", total, n)
	}
}

func TestGoReusesParkedProcesses(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	ran := 0
	k.Run("main", func() {
		for i := 0; i < 100; i++ {
			k.Go("worker", func() { ran++ })
			k.Sleep(time.Millisecond) // let the worker finish and park
		}
	})
	if ran != 100 {
		t.Fatalf("ran = %d, want 100", ran)
	}
	st := k.Stats()
	// One spawn for Run's root process, one for the first worker; every
	// later worker must come from the free list.
	if st.Spawns != 2 {
		t.Fatalf("Spawns = %d, want 2 (free list not reused)", st.Spawns)
	}
	if st.Reuses != 99 {
		t.Fatalf("Reuses = %d, want 99", st.Reuses)
	}
}

func TestStatsCountsDispatchesAndTimers(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	k.Run("main", func() { k.Sleep(time.Millisecond) })
	st := k.Stats()
	if st.Dispatches == 0 || st.TimerFires == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
}

func TestStopRetiresFreeListGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	k.Run("main", func() {
		for i := 0; i < 50; i++ {
			k.Go("w", func() {})
		}
		k.Sleep(time.Millisecond)
	})
	k.Stop()
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond) // goroutine exit is asynchronous
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines after Stop = %d, want <= %d (free list leaked)", got, before)
	}
}

func TestSleepAllocationFree(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	const perRun = 100
	run := func() {
		k.Run("bench", func() {
			for i := 0; i < perRun; i++ {
				k.Sleep(time.Microsecond)
			}
		})
	}
	run() // warm pools
	if allocs := testing.AllocsPerRun(5, run) / perRun; allocs > 0.2 {
		t.Fatalf("Sleep: %.3f allocs/op, want amortized 0", allocs)
	}
}

// TestStopKillOrder pins Stop's order: live processes unwind lowest id
// first; a process that parks again while unwinding is killed again
// before the next id; a process spawned while another unwinds is killed
// after every process that was live when Stop began.
func TestStopKillOrder(t *testing.T) {
	k := NewKernel(1)
	var order []string
	var liveAtC int64
	spawnedRan := false
	k.Run("main", func() {
		ch := NewChan[int](k, 0)
		k.Go("a", func() {
			defer func() { order = append(order, "a-second") }()
			defer func() {
				order = append(order, "a-first")
				k.Sleep(time.Millisecond) // parks again; Stop must re-kill
				order = append(order, "a-unreachable")
			}()
			ch.Recv()
		})
		k.Go("b", func() {
			defer func() {
				order = append(order, "b")
				k.Go("spawned", func() { spawnedRan = true })
			}()
			ch.Recv()
		})
		k.Go("c", func() {
			defer func() {
				order = append(order, "c")
				liveAtC = k.Stats().LiveProcs
			}()
			ch.Recv()
		})
		k.Sleep(time.Millisecond)
	})
	k.Stop()
	want := []string{"a-first", "a-second", "b", "c"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("kill order = %v, want %v", order, want)
	}
	if liveAtC != 2 {
		t.Fatalf("live procs while c unwinds = %d, want 2 (c and the process b spawned)", liveAtC)
	}
	if spawnedRan {
		t.Fatal("process spawned during unwinding ran its body")
	}
	if n := k.Stats().LiveProcs; n != 0 {
		t.Fatalf("live procs after stop = %d, want 0", n)
	}
}
