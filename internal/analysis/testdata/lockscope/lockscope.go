// Package lockscope is the golden-file input for the lockscope analyzer:
// blocking operations performed while a mutex field is held, the PR-1
// deadlock and race shapes.
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
	d.ch <- 1 // want "channel send while d.mu is held"
	d.mu.Unlock()
	d.ch <- 2 // ok: lock released
}

func (d *Doer) recvUnderDeferredRUnlock() {
	d.wmu.RLock()
	defer d.wmu.RUnlock()
	<-d.done // want "channel receive while d.wmu is held"
}

func (d *Doer) selectUnderLock() {
	d.mu.Lock()
	defer d.mu.Unlock()
	select { // want "blocking select while d.mu is held"
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
	d.OnDone(v) // want "invokes the OnDone callback while d.mu is held"
}

func (d *Doer) waitUnderLock() {
	d.mu.Lock()
	d.wg.Wait() // want "calls sync.Wait while d.mu is held"
	d.mu.Unlock()
}

// emit blocks by invoking the callback; calling it with the lock held is
// the transitive shape the fixed-point propagation exists for.
func (d *Doer) emit(v int) {
	d.OnDone(v)
}

func (d *Doer) transitive(v int) {
	d.mu.Lock()
	d.emit(v) // want "call to emit while d.mu is held"
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
	d.ch <- 4 // want "channel send while d.mu, d.wmu is held"
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
	//lint:allow lockscope golden test of the suppression path
	d.ch <- 6
	d.mu.Unlock()
}

func (d *Doer) trailingSuppression() {
	d.mu.Lock()
	d.ch <- 7 //lint:allow lockscope a trailing directive covers its own line only
	d.ch <- 8 // want "channel send while d.mu is held"
	d.mu.Unlock()
}
