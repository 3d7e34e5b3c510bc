package main

import "time"

// The benchmark measures the program in wall time; these are the only
// places it touches the clock.

func now() time.Time { return time.Now() } //overhaul:allow clockcheck the benchmark's ruler is wall time

func since(t time.Time) time.Duration { return time.Since(t) } //overhaul:allow clockcheck the benchmark's ruler is wall time

func sleep(d time.Duration) { time.Sleep(d) } //overhaul:allow clockcheck open-loop pacing and window visibility wait real time
