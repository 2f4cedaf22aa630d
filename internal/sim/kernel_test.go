package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestKernelRunsInTimestampOrder(t *testing.T) {
	k := New(1)
	var got []int
	k.At(30*time.Millisecond, func() { got = append(got, 3) })
	k.At(10*time.Millisecond, func() { got = append(got, 1) })
	k.At(20*time.Millisecond, func() { got = append(got, 2) })
	if n := k.Run(time.Second); n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

func TestKernelTieBreakIsInsertionOrder(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(time.Millisecond, func() { got = append(got, i) })
	}
	k.Run(time.Second)
	for i := 0; i < 100; i++ {
		if got[i] != i {
			t.Fatalf("tie broken out of insertion order at %d: got %d", i, got[i])
		}
	}
}

func TestKernelClockAdvancesDuringHandlers(t *testing.T) {
	k := New(1)
	var at Time
	k.At(42*time.Millisecond, func() { at = k.Now() })
	k.Run(time.Second)
	if at != 42*time.Millisecond {
		t.Fatalf("Now() inside handler = %v, want 42ms", at)
	}
	if k.Now() != time.Second {
		t.Fatalf("clock after Run = %v, want horizon 1s", k.Now())
	}
}

func TestKernelHorizonLeavesFutureEvents(t *testing.T) {
	k := New(1)
	fired := false
	k.At(2*time.Second, func() { fired = true })
	k.Run(time.Second)
	if fired {
		t.Fatal("event past horizon fired")
	}
	k.Run(3 * time.Second)
	if !fired {
		t.Fatal("event not fired after extending horizon")
	}
}

func TestKernelNextAt(t *testing.T) {
	k := New(1)
	if _, ok := k.NextAt(); ok {
		t.Fatal("empty kernel reports a next event")
	}
	k.At(3*time.Second, func() {})
	c := k.At(2*time.Second, func() {})
	if at, ok := k.NextAt(); !ok || at != 2*time.Second {
		t.Fatalf("NextAt = %v, %v; want 2s", at, ok)
	}
	c.Cancel()
	k.Run(2500 * time.Millisecond) // discards the cancelled entry
	if at, ok := k.NextAt(); !ok || at != 3*time.Second {
		t.Fatalf("NextAt after run = %v, %v; want 3s", at, ok)
	}
	k.RunAll()
	if _, ok := k.NextAt(); ok {
		t.Fatal("drained kernel reports a next event")
	}
}

func TestKernelSchedulingFromHandler(t *testing.T) {
	k := New(1)
	var order []string
	k.At(time.Millisecond, func() {
		order = append(order, "a")
		k.After(time.Millisecond, func() { order = append(order, "b") })
	})
	k.Run(time.Second)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v, want [a b]", order)
	}
}

func TestKernelSchedulePastPanics(t *testing.T) {
	k := New(1)
	k.At(time.Second, func() {})
	k.Run(2 * time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.At(time.Millisecond, func() {})
}

func TestCancelerPreventsExecution(t *testing.T) {
	k := New(1)
	fired := false
	c := k.At(time.Millisecond, func() { fired = true })
	c.Cancel()
	k.Run(time.Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
	c.Cancel() // double-cancel is a no-op
}

func TestKernelStop(t *testing.T) {
	k := New(1)
	var count int
	for i := 1; i <= 10; i++ {
		k.At(Time(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run(time.Second)
	if count != 3 {
		t.Fatalf("executed %d events after Stop, want 3", count)
	}
}

func TestNewStreamDeterministicAndDecorrelated(t *testing.T) {
	k1 := New(7)
	k2 := New(7)
	a1 := k1.NewStream(1)
	a2 := k2.NewStream(1)
	b := k1.NewStream(2)
	sameAsA1 := true
	for i := 0; i < 32; i++ {
		x := a1.Int63()
		if x != a2.Int63() {
			t.Fatal("same (seed, tag) produced different streams")
		}
		if x != b.Int63() {
			sameAsA1 = false
		}
	}
	if sameAsA1 {
		t.Fatal("different tags produced identical streams")
	}
}

func TestTickerPeriodicFiring(t *testing.T) {
	k := New(1)
	var times []Time
	NewTicker(k, 10*time.Millisecond, 5*time.Millisecond, func() {
		times = append(times, k.Now())
	})
	k.Run(36 * time.Millisecond)
	want := []Time{5 * time.Millisecond, 15 * time.Millisecond, 25 * time.Millisecond, 35 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("fired %d times (%v), want %d", len(times), times, len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("firing %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestTickerStop(t *testing.T) {
	k := New(1)
	count := 0
	var tk *Ticker
	tk = NewTicker(k, 10*time.Millisecond, 0, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	k.Run(time.Second)
	if count != 2 {
		t.Fatalf("ticker fired %d times after Stop, want 2", count)
	}
}

func TestTickerSetPeriod(t *testing.T) {
	k := New(1)
	var times []Time
	var tk *Ticker
	tk = NewTicker(k, 10*time.Millisecond, 0, func() {
		times = append(times, k.Now())
		tk.SetPeriod(20 * time.Millisecond)
	})
	k.Run(55 * time.Millisecond)
	want := []Time{0, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fired at %v, want %v", times, want)
		}
	}
}

func TestJitteredTickerPhaseWithinPeriod(t *testing.T) {
	k := New(99)
	var first Time = -1
	NewJitteredTicker(k, 30*time.Millisecond, k.NewStream(3), func() {
		if first < 0 {
			first = k.Now()
		}
	})
	k.Run(time.Second)
	if first < 0 || first >= 30*time.Millisecond {
		t.Fatalf("first firing at %v, want within [0, 30ms)", first)
	}
}

// TestKernelExecutionOrderProperty: any batch of events scheduled with
// arbitrary timestamps executes in non-decreasing time order, and
// events with equal timestamps execute in insertion order.
func TestKernelExecutionOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := New(1)
		type exec struct {
			at  Time
			seq int
		}
		var got []exec
		for i, d := range delays {
			at := Time(d%977) * time.Millisecond
			i := i
			k.At(at, func() { got = append(got, exec{at: k.Now(), seq: i}) })
		}
		k.RunAll()
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelProcessedCount(t *testing.T) {
	k := New(1)
	for i := 0; i < 5; i++ {
		k.After(time.Millisecond, func() {})
	}
	c := k.After(2*time.Millisecond, func() {})
	c.Cancel()
	k.RunAll()
	if got := k.Processed(); got != 5 {
		t.Fatalf("Processed = %d, want 5 (cancelled events do not count)", got)
	}
}

// BenchmarkKernelScheduleDispatch measures the kernel's per-event cost
// on the schedule/dispatch path: every executed handler reschedules
// itself, so each op is exactly one heap push, one heap pop, and one
// handler dispatch over a standing population of timers.
func BenchmarkKernelScheduleDispatch(b *testing.B) {
	const population = 256
	k := New(1)
	rng := k.NewStream(1)
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		k.After(Time(rng.Intn(1000))*time.Microsecond, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < population; i++ {
		k.At(Time(i)*time.Microsecond, tick)
	}
	k.RunAll()
}

// BenchmarkKernelScheduleCancel measures the schedule-then-cancel path:
// each op schedules one timer and cancels it before it fires, the
// lifecycle of every retransmission timeout that is satisfied in time.
func BenchmarkKernelScheduleCancel(b *testing.B) {
	k := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(time.Millisecond, fn).Cancel()
		if i%1024 == 1023 {
			// Drain the cancelled backlog the way a real run would:
			// virtual time advances past the dead entries.
			k.Run(k.Now() + 2*time.Millisecond)
		}
	}
	k.RunAll()
}

func TestKernelEntryRecyclingReusesEntries(t *testing.T) {
	k := New(1)
	var ran int
	for i := 0; i < 1000; i++ {
		k.After(time.Millisecond, func() { ran++ })
		k.RunAll()
	}
	if ran != 1000 {
		t.Fatalf("ran = %d, want 1000", ran)
	}
	// After the first iterations the free list feeds every At call:
	// scheduling must not grow the heap beyond the standing population.
	if got := testing.AllocsPerRun(100, func() {
		k.After(time.Millisecond, func() {})
		k.RunAll()
	}); got > 0 {
		t.Fatalf("schedule/dispatch allocates %v objects per event, want 0", got)
	}
}

func TestKernelStaleCancelerIsNoOpAfterRecycle(t *testing.T) {
	k := New(1)
	var first, second bool
	c := k.After(time.Millisecond, func() { first = true })
	k.RunAll()
	// The entry behind c has been recycled; the next After may reuse it.
	for i := 0; i < 10; i++ {
		k.After(time.Millisecond, func() { second = true })
	}
	c.Cancel() // must not cancel the recycled entry's new event
	k.RunAll()
	if !first || !second {
		t.Fatalf("first = %v, second = %v, want both true", first, second)
	}
}

func TestKernelCancelDuringOwnHandlerIsNoOp(t *testing.T) {
	k := New(1)
	var c Canceler
	ran := false
	c = k.After(time.Millisecond, func() {
		ran = true
		c.Cancel() // self-cancel mid-execution must not corrupt the pool
	})
	k.RunAll()
	if !ran {
		t.Fatal("handler did not run")
	}
	fired := false
	k.After(time.Millisecond, func() { fired = true })
	k.RunAll()
	if !fired {
		t.Fatal("self-cancel leaked into a later event")
	}
}

func TestKernelMassCancellationDrainsLazily(t *testing.T) {
	k := New(1)
	cancels := make([]Canceler, 0, 10000)
	for i := 0; i < 10000; i++ {
		cancels = append(cancels, k.After(time.Hour, func() {}))
	}
	keep := k.After(time.Minute, func() {})
	_ = keep
	for _, c := range cancels {
		c.Cancel()
	}
	// The sweep must have reclaimed the cancelled bulk without virtual
	// time ever reaching the cancelled timestamps.
	if p := k.Pending(); p > 128 {
		t.Fatalf("Pending = %d after mass cancel, want sweep to have drained it", p)
	}
	if n := k.Run(2 * time.Minute); n != 1 {
		t.Fatalf("executed %d events, want just the surviving one", n)
	}
}

func TestKernelDoubleCancelCountsOnce(t *testing.T) {
	k := New(1)
	var ran int
	for i := 0; i < 200; i++ {
		k.After(time.Hour, func() { ran++ })
	}
	c := k.After(time.Hour, func() { ran++ })
	for i := 0; i < 1000; i++ {
		c.Cancel() // repeated cancels must not inflate the dead count
	}
	k.RunAll()
	if ran != 200 {
		t.Fatalf("ran = %d, want 200", ran)
	}
}
