package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// request is one scheduled POST of the open-loop generator.
type request struct {
	due  time.Duration // offset from the phase start
	body []byte
}

// outcome is what happened to one request. Offsets are from the phase
// start.
type outcome struct {
	sent    bool
	due     time.Duration
	late    time.Duration // wake-up minus due when the sender slept until due; -1 when it was busy past due
	sendAt  time.Duration
	latency time.Duration // completion minus due, so a stall also delays the requests queued behind it
	status  int
	err     error
}

// limits end a phase before its schedule runs out. Zero values disable
// them.
type limits struct {
	// deadline stops sending once the phase has run this long.
	deadline time.Duration
	// maxMisses stops sending once more than maxMisses requests missed
	// slo or failed, which bounds a probe of an overloaded server.
	maxMisses int
	slo       time.Duration
}

// openLoop sends reqs on their schedule over conns senders, each holding
// one connection: a sender takes the next request, sleeps until it is
// due, sends it, and reads the whole response. The schedule never waits
// for the server; a request that finds every sender busy goes out late
// and its latency, timed from its due time, includes the wait. A schedule
// whose requests are all due at once keeps every connection busy: the
// server's throughput with conns connections. check, when set, sees each
// answered request's status and body once its latency is taken; bodies
// are not kept.
func openLoop(client *http.Client, url string, reqs []request, conns int, lim limits, check func(i, status int, body []byte)) []outcome {
	outs := make([]outcome, len(reqs))
	var next, misses atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || (lim.deadline > 0 && time.Since(start) >= lim.deadline) {
					return
				}
				o := &outs[i]
				o.due = reqs[i].due
				due := start.Add(o.due)
				o.late = -1
				if time.Until(due) > 0 {
					sleepUntil(due)
					o.late = time.Since(due)
				}
				o.sent = true
				o.sendAt = time.Since(start)
				var body []byte
				o.status, body, o.err = post(client, url, reqs[i].body)
				o.latency = time.Since(due)
				if check != nil && o.err == nil {
					check(i, o.status, body)
				}
				if lim.maxMisses > 0 && (o.latency > lim.slo || o.status != http.StatusOK) && misses.Add(1) > int64(lim.maxMisses) {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return outs
}

// sleepUntil blocks until t. It sleeps in nanosleep rather than
// time.Sleep: the runtime's timers wake a sleeper up to a millisecond
// late on Linux, longer than a memory-tier request takes, while
// nanosleep wakes within the kernel's timer slack (50 µs by default).
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop sleeps the rest
	}
}

// post sends one JSON body and reads the whole response.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// loadStats summarizes one phase of the generator.
type loadStats struct {
	sent, failed int
	p99          float64 // latency from due time, ms; a failed request counts as infinitely late
	lateP99      float64 // p99 of how late the generator woke for a due request, ms
	achievedRPS  float64 // completed requests per second of phase
}

// windowed returns the median, over consecutive windows of due time, of
// each window's q-quantile latency (ms; a failed request counts as
// infinitely late). A stall of the machine that hosts both the generator
// and the server then moves the statistic only if it spoils most
// windows, not the whole phase's tail.
func windowed(outs []outcome, win time.Duration, q float64) float64 {
	var byWin [][]float64
	for _, o := range outs {
		if !o.sent {
			continue
		}
		k := int(o.due / win)
		for len(byWin) <= k {
			byWin = append(byWin, nil)
		}
		lat := ms(o.latency)
		if o.err != nil || o.status != http.StatusOK {
			lat = math.Inf(1)
		}
		byWin[k] = append(byWin[k], lat)
	}
	var qs []float64
	for _, w := range byWin {
		if len(w) > 0 {
			qs = append(qs, percentile(w, q))
		}
	}
	return median(qs)
}

// summarize computes the phase statistics of outs.
func summarize(outs []outcome) loadStats {
	var s loadStats
	var lat, late []float64
	var end time.Duration
	for _, o := range outs {
		if !o.sent {
			continue
		}
		s.sent++
		if o.late >= 0 {
			late = append(late, ms(o.late))
		}
		if o.err != nil || o.status != http.StatusOK {
			s.failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(o.latency))
		end = max(end, o.due+o.latency)
	}
	s.p99 = percentile(lat, 0.99)
	s.lateP99 = percentile(late, 0.99)
	if end > 0 {
		s.achievedRPS = float64(s.sent-s.failed) / end.Seconds()
	}
	return s
}
