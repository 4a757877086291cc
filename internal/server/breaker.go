package server

import (
	"sync"
	"time"
)

// Breaker states, as surfaced in WorkerStatus.Breaker (/v1/stats) and the
// ftserve_worker_breaker_state metric.
const (
	// BreakerClosed: the worker is admitted normally.
	BreakerClosed = "closed"
	// BreakerOpen: the worker is skipped until its cooldown elapses.
	BreakerOpen = "open"
	// BreakerHalfOpen: cooldown elapsed; one dispatcher is probing
	// /healthz, everyone else still skips the worker.
	BreakerHalfOpen = "half-open"
)

// DefaultBreakerThreshold is how many consecutive dispatch failures open
// a worker's breaker when Config.BreakerThreshold is unset.
const DefaultBreakerThreshold = 3

// Breaker cooldowns: the first open lasts breakerBaseCooldown, each
// reopen without an intervening dispatch success doubles it up to
// breakerMaxCooldown. A dispatch success resets the ladder.
const (
	breakerBaseCooldown = 250 * time.Millisecond
	breakerMaxCooldown  = 15 * time.Second
)

// breaker is one worker's circuit breaker. Dispatchers call admit before
// attempting the worker, then either probeResult, or begin and then
// exactly one of success / failure. 4xx answers never reach the breaker — a rate-limiting
// worker, or one rejecting a bad request, is alive.
type breaker struct {
	threshold int

	mu           sync.Mutex
	state        string
	fails        int           // consecutive dispatch failures while closed
	opens        int64         // cumulative transitions into open
	until        time.Time     // open: earliest half-open probe time
	nextCooldown time.Duration // cooldown the next open will use
}

func newBreaker(threshold int) *breaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	return &breaker{threshold: threshold, state: BreakerClosed, nextCooldown: breakerBaseCooldown}
}

// admit reports whether a dispatch attempt may proceed. probe=true means
// the breaker just went half-open for this caller: it must hit /healthz
// and report through probeResult before dispatching. While a probe is in
// flight every other admit is refused.
func (b *breaker) admit() (attempt, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if time.Now().Before(b.until) {
			return false, false
		}
		b.state = BreakerHalfOpen
		return true, true
	default: // half-open: a probe is already in flight
		return false, false
	}
}

// openLocked trips the breaker and advances the cooldown ladder.
func (b *breaker) openLocked() {
	b.state = BreakerOpen
	b.opens++
	b.fails = 0
	b.until = time.Now().Add(b.nextCooldown)
	if b.nextCooldown *= 2; b.nextCooldown > breakerMaxCooldown {
		b.nextCooldown = breakerMaxCooldown
	}
}

// begin returns the token a dispatch attempt hands to success or
// failure: the open count when the attempt started. An outcome whose
// attempt started before the breaker last opened is stale and ignored,
// so a shard that was in flight when the worker failed cannot close the
// breaker by completing late, and its failure does not reopen it.
func (b *breaker) begin() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// success records a completed shard round-trip: the breaker closes and
// the cooldown ladder resets.
func (b *breaker) success(since int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.opens != since {
		return
	}
	b.state = BreakerClosed
	b.fails = 0
	b.nextCooldown = breakerBaseCooldown
}

// failure records a failed dispatch attempt (transport error, 5xx,
// malformed response — not a 4xx). After threshold consecutive failures
// the breaker opens; a failure in half-open (the probe passed but the
// dispatch itself failed) reopens immediately.
func (b *breaker) failure(since int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.opens != since {
		return
	}
	if b.state == BreakerClosed {
		if b.fails++; b.fails >= b.threshold {
			b.openLocked()
		}
		return
	}
	b.openLocked()
}

// probeResult resolves a half-open probe: a healthy /healthz re-admits
// the worker (closed), anything else reopens with a doubled cooldown.
func (b *breaker) probeResult(healthy bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if healthy {
		b.state = BreakerClosed
		b.fails = 0
		return
	}
	b.openLocked()
}

// snapshot returns the state and cumulative open count for stats.
func (b *breaker) snapshot() (state string, opens int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens
}
