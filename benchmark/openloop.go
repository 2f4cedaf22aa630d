package main

import "time"

// openLoop issues n operations on a fixed schedule: operation i is due
// at start + i/rate, whatever happened to the ones before it. A stall therefore shows up twice, as the guide on open loops asks:
// in the lateness of every operation the stall delayed (recorded into
// lag, in nanoseconds), and in the latency of those operations, because
// issue receives the due time — not the time it was called — as the
// instant to measure from.
//
// now and sleep are the clock (time since the caller's epoch, and a
// wait); tests inject a fake one.
func openLoop(n int, rate float64, start time.Duration, now func() time.Duration, sleep func(time.Duration), lag *hist, issue func(i int, due time.Duration)) {
	for i := 0; i < n; i++ {
		due := start + dueOffset(int64(i), rate)
		t := now()
		for t < due {
			sleep(due - t)
			t = now()
		}
		lag.Record(int64(t - due))
		issue(i, due)
	}
}

// dueOffset is when operation i of an open loop at rate is due, from the
// loop's start.
func dueOffset(i int64, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}
