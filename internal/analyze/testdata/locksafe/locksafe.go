// Package locksafe holds the locksafe analyzer fixtures. Functions
// with `want` comments are true positives; the Clean* functions are
// the negatives the analyzer must stay silent on. The fixture config
// (analyze.FixtureConfig) ranks Engine.mu=10, Index.mu=20, Entry.mu=30,
// Store.mu=40 and declares Index.mu and Entry.mu hot.
package locksafe

import (
	"errors"
	"os"
	"sync"
)

type Engine struct{ mu sync.Mutex }
type Index struct{ mu sync.RWMutex }
type Entry struct{ mu sync.Mutex }
type Store struct{ mu sync.RWMutex }

// Policy is the fixture callback interface (declared blocking).
type Policy interface{ OnEvict(n int) }

var errEarly = errors.New("early")

func work() {}

// --- positives -------------------------------------------------------

// LeakOnReturn forgets the unlock on the error path.
func LeakOnReturn(e *Engine, fail bool) error {
	e.mu.Lock()
	if fail {
		return errEarly // want "return while e.mu is held"
	}
	e.mu.Unlock()
	return nil
}

// LeakFallThrough never unlocks at all.
func LeakFallThrough(e *Engine) {
	e.mu.Lock() // want "not released on the fall-through return path"
}

// LeakInBranch acquires conditionally and leaks past the branch end.
func LeakInBranch(e *Engine, cond bool) {
	if cond {
		e.mu.Lock() // want "acquired in branch is not released"
	}
}

// LeakInLoop would self-deadlock on the second iteration.
func LeakInLoop(e *Engine, n int) {
	for i := 0; i < n; i++ {
		e.mu.Lock() // want "acquired in loop body is not released"
	}
}

// Recursive re-acquires a lock it already holds.
func Recursive(e *Engine) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mu.Lock() // want "already held"
	e.mu.Unlock()
}

// OrderViolation acquires rank 20 while holding rank 30.
func OrderViolation(ix *Index, en *Entry) {
	en.mu.Lock()
	defer en.mu.Unlock()
	ix.mu.Lock() // want "violates the lock-order DAG"
	ix.mu.Unlock()
}

// BlockingSend sends on a channel under a hot lock.
func BlockingSend(ix *Index, ch chan int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ch <- 1 // want "channel send while holding hot lock"
}

// BlockingRecv receives under a hot lock.
func BlockingRecv(en *Entry, ch chan int) int {
	en.mu.Lock()
	defer en.mu.Unlock()
	return <-ch // want "channel receive while holding hot lock"
}

// BlockingFileIO does file I/O under a hot read lock.
func BlockingFileIO(ix *Index, f *os.File) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_ = f.Sync() // want "file I/O call"
}

// BlockingOSCall calls a blocking os helper under a hot lock.
func BlockingOSCall(ix *Index, path string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	_ = os.Remove(path) // want "blocking call os.Remove"
}

// CallbackUnderLock invokes arbitrary policy code under a hot lock.
func CallbackUnderLock(ix *Index, p Policy) {
	ix.mu.Lock()
	p.OnEvict(1) // want "callback invocation"
	ix.mu.Unlock()
}

// SelectUnderLock blocks in select under a hot lock.
func SelectUnderLock(en *Entry, ch chan int) {
	en.mu.Lock()
	defer en.mu.Unlock()
	select { // want "select statement while holding hot lock"
	case <-ch:
	default:
	}
}

// --- negatives -------------------------------------------------------

// CleanDefer is the canonical pattern.
func CleanDefer(e *Engine) {
	e.mu.Lock()
	defer e.mu.Unlock()
	work()
}

// CleanPaired unlocks explicitly on every path.
func CleanPaired(s *Store, cond bool) {
	s.mu.RLock()
	if cond {
		s.mu.RUnlock()
		return
	}
	s.mu.RUnlock()
}

// CleanOrder nests strictly downward (20 then 30).
func CleanOrder(ix *Index, en *Entry) {
	ix.mu.Lock()
	en.mu.Lock()
	en.mu.Unlock()
	ix.mu.Unlock()
}

// CleanDeferredClosure unlocks inside a deferred closure.
func CleanDeferredClosure(e *Engine) {
	e.mu.Lock()
	defer func() {
		work()
		e.mu.Unlock()
	}()
	work()
}

// CleanSendColdLock sends under a ranked-but-not-hot lock: allowed.
func CleanSendColdLock(e *Engine, ch chan int) {
	e.mu.Lock()
	ch <- 1
	e.mu.Unlock()
}

// CleanLoopBalanced locks and unlocks every iteration.
func CleanLoopBalanced(s *Store, n int) {
	for i := 0; i < n; i++ {
		s.mu.Lock()
		s.mu.Unlock()
	}
}

// CleanTryLock transfers conditional ownership to a goroutine; TryLock
// acquisitions are deliberately untracked.
func CleanTryLock(e *Engine) bool {
	if !e.mu.TryLock() {
		return false
	}
	go func() {
		work()
		e.mu.Unlock()
	}()
	return true
}
