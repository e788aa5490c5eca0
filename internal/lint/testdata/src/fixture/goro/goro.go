// Package goro seeds the goroutine-lifecycle violations — orphan
// spawns, uncovered WaitGroup joins, unbounded loops, leak-on-early-
// return — next to the join and cancel shapes goroutinelife accepts.
package goro

import "sync"

// Orphan spawns a goroutine nothing ever joins or cancels.
func Orphan() {
	go func() { // want "goroutine has no provable join or cancel path"
		_ = 1 + 1
	}()
}

// MissingAdd joins with Done but never Adds, so Wait does not cover the
// goroutine.
func MissingAdd(wg *sync.WaitGroup) {
	go func() { // want "never calls Add before the go statement"
		defer wg.Done()
	}()
}

// PerQuery launches one goroutine per query index: ranging over a count
// is as unbounded as ranging over a slice.
func PerQuery(n int, wg *sync.WaitGroup) {
	for range n {
		wg.Add(1)
		go func() { // want "unbounded goroutine spawn"
			defer wg.Done()
		}()
	}
}

// Unbounded launches one goroutine per element with no semaphore.
func Unbounded(items []int, wg *sync.WaitGroup) {
	for range items {
		wg.Add(1)
		go func() { // want "unbounded goroutine spawn"
			defer wg.Done()
		}()
	}
}

// LeakOnReturn's worker blocks forever on result when the timeout case
// returns first.
func LeakOnReturn(timeout chan struct{}) int {
	result := make(chan int)
	go func() { // want "goroutine may leak on early return"
		result <- 42
	}()
	select {
	case v := <-result:
		return v
	case <-timeout:
		return 0
	}
}

// Bounded acquires a semaphore slot before each spawn: clean.
func Bounded(items []int, wg *sync.WaitGroup) {
	sem := make(chan struct{}, 4)
	for range items {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-sem
		}()
	}
}

// Buffered gives the worker a buffered result slot, so an early return
// cannot strand it: clean.
func Buffered(timeout chan struct{}) int {
	result := make(chan int, 1)
	go func() {
		result <- 42
	}()
	select {
	case v := <-result:
		return v
	case <-timeout:
		return 0
	}
}

// DoneChannel parks the goroutine on a cancel channel: clean.
func DoneChannel() func() {
	done := make(chan struct{})
	go func() {
		<-done
	}()
	return func() { close(done) }
}

// work carries the join evidence for ViaCallee.
func work(results chan<- int) {
	results <- 1
}

// ViaCallee's evidence lives in the spawned callee, proved through the
// call graph: clean.
func ViaCallee(results chan int) {
	go work(results)
}
