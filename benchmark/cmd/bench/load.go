package main

import (
	"sync"
	"time"
)

// closedLoop runs `clients` callers for dur: each sends its next op only
// when the previous one has completed, so a slow server receives less
// load. script(i, n) is client i's n-th op. An op in flight when the
// window closes is allowed to finish and is counted. The returned rate is
// the sum over clients of OK ops per second of that client's own elapsed
// time, which does not quantise on the window edge the way "completions
// inside a fixed window" does when an op takes a sixth of the window.
func closedLoop(c *client, clients int, script func(i, n int) *op, epoch time.Time, dur time.Duration) ([]outcome, float64) {
	var (
		mu   sync.Mutex
		all  []outcome
		rate float64
		wg   sync.WaitGroup
	)
	start := time.Since(epoch)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var mine []outcome
			ok := 0
			for n := 0; n == 0 || time.Since(epoch)-start < dur; n++ {
				now := time.Since(epoch)
				out := c.do(script(i, n), i*1_000_000+n, epoch, now)
				if out.ok() {
					ok++
				}
				mine = append(mine, out)
			}
			mu.Lock()
			defer mu.Unlock()
			all = append(all, mine...)
			if len(mine) > 0 {
				rate += float64(ok) / (mine[len(mine)-1].done - start).Seconds()
			}
		}(i)
	}
	wg.Wait()
	return all, rate
}

// arrival is one scheduled op of an open loop.
type arrival struct {
	due time.Duration // offset from the start of the window
	op  *op
}

// maxLate is how long an open-loop op may wait for a free connection
// before it is abandoned and counted as failed. It bounds the backlog a
// server that cannot keep up would otherwise grow without limit.
const maxLate = 2 * time.Second

// openLoop fires the schedule regardless of how the server is doing:
// independent users do not wait for each other. One dispatcher hands each
// op, at its due time, to the first free of `conns` senders, FIFO; an op
// that finds every connection busy waits, and because latency is counted
// from the due time that wait is part of its latency.
func openLoop(c *client, conns int, plan []arrival, epoch time.Time) []outcome {
	type job struct {
		seq int
		a   arrival
	}
	start := time.Since(epoch)
	jobs := make(chan job)
	outs := make([]outcome, len(plan))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				due := start + j.a.due
				if late := time.Since(epoch) - due; late > maxLate {
					outs[j.seq] = outcome{op: j.a.op, seq: j.seq, due: due, sent: due + late, done: due + late,
						err: errBacklog}
					continue
				}
				outs[j.seq] = c.do(j.a.op, j.seq, epoch, due)
			}
		}()
	}
	for i, a := range plan {
		waitUntil(epoch, start+a.due)
		jobs <- job{i, a}
	}
	close(jobs)
	wg.Wait()
	return outs
}

type backlogError struct{}

func (backlogError) Error() string {
	return "abandoned: no connection came free within 2 s of the due time"
}

var errBacklog error = backlogError{}

// waitUntil sleeps until the given offset from epoch. Timers on small
// virtual machines can be a millisecond coarse, so an op may fire that
// much late. Its latency still counts from the due time, and the traced
// run reports how late the generator ran. Spinning out the last stretch
// instead was tried and dropped: on two cores the spinning driver thread
// competes with the server for a core, which moved point latency by
// +-10 % from run to run.
func waitUntil(epoch time.Time, at time.Duration) {
	if d := at - time.Since(epoch); d > 0 {
		time.Sleep(d)
	}
}
