package faults

import (
	"sync"
	"time"

	"aquoman/internal/flash"
)

// Gate parks device page reads so that a test can hold a query mid-scan
// for exactly as long as it needs: every read that reaches the device
// blocks inside the injector until Release, and Entered reports that the
// first one has arrived. It replaces "make the device slow and hope the
// query is still running": the query is in flight, at a known point, until
// the test says otherwise. Reads pass straight through after Release.
type Gate struct {
	entered, released chan struct{}
	enter, release    sync.Once
}

// NewGate returns a closed gate.
func NewGate() *Gate {
	return &Gate{entered: make(chan struct{}), released: make(chan struct{})}
}

// Install puts the gate in front of every page read of dev (replacing any
// fault injector there).
func (g *Gate) Install(dev *flash.Device) {
	inj := New(Config{})
	inj.Hook = g.Hook
	dev.SetFaults(inj)
}

// Hook is the Injector.Hook that does the parking; it injects no fault.
func (g *Gate) Hook(string, int64, flash.Requester, int) (Kind, bool) {
	g.enter.Do(func() { close(g.entered) })
	<-g.released
	return 0, false
}

// Entered is closed once a page read is parked at the gate.
func (g *Gate) Entered() <-chan struct{} { return g.entered }

// ReleaseAfter opens the gate d after the first read is parked at it: the
// query that issued the read is mid-scan for at least d. With d a multiple
// of a deadline that started before the query reached the device, the
// deadline has passed when the scan resumes.
func (g *Gate) ReleaseAfter(d time.Duration) {
	go func() {
		select {
		case <-g.entered:
			time.Sleep(d)
			g.Release()
		case <-g.released:
		}
	}()
}

// Release opens the gate for good. Idempotent.
func (g *Gate) Release() { g.release.Do(func() { close(g.released) }) }
