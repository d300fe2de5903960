// Package unusedignore is the golden-test fixture for the unused
// suppression report, run with guardedby alone: a //lint:ignore directive
// of an analyzer that ran but suppressed nothing is itself flagged.
package unusedignore

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func suppressesAFinding(c *counter) {
	//lint:ignore guardedby fixture: a real finding on the next line
	c.n++
}

func suppressesOnItsOwnLine(c *counter) {
	c.n++ //lint:ignore guardedby fixture: end-of-line form
}

func suppressesNothing(c *counter) {
	c.mu.Lock()
	//lint:ignore guardedby fixture: the lock is held // want `//lint:ignore guardedby suppresses nothing`
	c.n++
	c.mu.Unlock()
}

func analyzerDidNotRun(c *counter) {
	c.mu.Lock()
	//lint:ignore walorder fixture: walorder is not in this run, so not judged
	c.n++
	c.mu.Unlock()
}
