package main

import (
	"runtime"
	"time"
)

// sleepSlack is how early an open-loop goroutine must be before it
// sleeps: a sleep wakes up late by tens of microseconds or more, so the
// last stretch before an arrival is spent yielding instead.
const sleepSlack = 2 * time.Millisecond

// pacer releases open-loop arrivals on a schedule measured from start.
// Arrivals are timed from when they were due, not from when the
// goroutine got round to them, so a stall is charged to every arrival
// it delays.
type pacer struct {
	start time.Time
}

// wait blocks until due (an offset from start) and returns how late
// the release was.
func (p pacer) wait(due time.Duration) time.Duration {
	for {
		early := due - since(p.start)
		if early <= 0 {
			return -early
		}
		if early > sleepSlack {
			sleep(early - sleepSlack)
		} else {
			runtime.Gosched()
		}
	}
}

// sinceDue returns the time elapsed since the arrival due at offset due.
func (p pacer) sinceDue(due time.Duration) time.Duration {
	return since(p.start) - due
}
