// Package lockscope is the blocking half of the lockorder spec: operations
// that may block while a mutex is held, the shapes of the engine's first
// deadlocks and races.
package lockscope

import "sync"

// Doer holds the shapes the analyzer watches: mutexes, channels, a
// WaitGroup and a function-typed callback field.
type Doer struct {
	mu     sync.Mutex
	wmu    sync.RWMutex
	ch     chan int
	done   chan struct{}
	wg     sync.WaitGroup
	OnDone func(int)
}

func (d *Doer) sendUnderLock() {
	d.mu.Lock()
	d.ch <- 1 // want "channel send while Doer.mu is held"
	d.mu.Unlock()
	d.ch <- 2 // ok: lock released
}

func (d *Doer) recvUnderDeferredRUnlock() {
	d.wmu.RLock()
	defer d.wmu.RUnlock()
	<-d.done // want "channel receive while Doer.wmu is held"
}

func (d *Doer) selectUnderLock() {
	d.mu.Lock()
	defer d.mu.Unlock()
	select { // want "blocking select while Doer.mu is held"
	case v := <-d.ch:
		_ = v
	case d.done <- struct{}{}:
	}
}

func (d *Doer) pollUnderLock() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	select { // ok: a default case makes the select non-blocking
	case v := <-d.ch:
		return v > 0
	default:
		return false
	}
}

func (d *Doer) callbackUnderLock(v int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.OnDone(v) // want "invokes the OnDone callback while Doer.mu is held"
}

func (d *Doer) waitUnderLock() {
	d.mu.Lock()
	d.wg.Wait() // want "calls sync.Wait while Doer.mu is held"
	d.mu.Unlock()
}

// emit blocks by invoking the callback; calling it with the lock held is
// the transitive shape the fixed-point propagation exists for.
func (d *Doer) emit(v int) {
	d.OnDone(v)
}

func (d *Doer) transitive(v int) {
	d.mu.Lock()
	d.emit(v) // want "call to emit while Doer.mu is held"
	d.mu.Unlock()
}

func (d *Doer) nestedScope() {
	{
		d.mu.Lock()
		d.mu.Unlock()
	}
	d.ch <- 3 // ok: the lock was scoped to the inner block
}

func (d *Doer) twoLocks() {
	d.mu.Lock()
	d.wmu.Lock()
	d.ch <- 4 // want "channel send while Doer.mu, Doer.wmu is held"
	d.wmu.Unlock()
	d.mu.Unlock()
}

func (d *Doer) sendFromGoroutine() {
	d.mu.Lock()
	defer d.mu.Unlock()
	go func() { d.ch <- 5 }() // ok: the literal's body runs on another goroutine
}

func (d *Doer) suppressed() {
	d.mu.Lock()
	//lint:allow lockorder golden test of the suppression path
	d.ch <- 6
	d.mu.Unlock()
}

func (d *Doer) trailingSuppression() {
	d.mu.Lock()
	d.ch <- 7 //lint:allow lockorder a trailing directive covers its own line only
	d.ch <- 8 // want "channel send while Doer.mu is held"
	d.mu.Unlock()
}

// lockOnSlowPath takes the lock on one branch only: the lock may still be
// held after the join, deferred to function end.
func (d *Doer) lockOnSlowPath(fast bool) {
	if !fast {
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	d.ch <- 9 // want "channel send while Doer.mu is held"
}

// sendInPollCase polls without blocking, but its case body sends.
func (d *Doer) sendInPollCase() {
	d.mu.Lock()
	defer d.mu.Unlock()
	select {
	case v := <-d.ch:
		d.done <- struct{}{} // want "channel send while Doer.mu is held"
		_ = v
	default:
	}
}

// unlockOnBothArms releases the lock on every path before the send.
func (d *Doer) unlockOnBothArms(v int) {
	d.mu.Lock()
	if v > 0 {
		d.mu.Unlock()
	} else {
		d.mu.Unlock()
	}
	d.ch <- v // ok: every path released the lock
}

// sendUnderLocalLock blocks under a function-local mutex, which takes no
// part in ordering but still counts as held.
func (d *Doer) sendUnderLocalLock() {
	var mu sync.Mutex
	mu.Lock()
	d.ch <- 10 // want "channel send while mu is held"
	mu.Unlock()
}
