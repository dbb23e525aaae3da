// Package main mirrors cmd/reproduce: wallNow is its one allowlisted
// wall-clock tap (the artifact index is stamped and timed in wall time),
// while every other function in the command stays checked.
package main

import "time"

func wallNow() time.Time { return time.Now() }

func main() {
	_ = wallNow()
	time.Sleep(0) // want "time.Sleep couples the run to real elapsed time"
}
