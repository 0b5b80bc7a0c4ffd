package service

import (
	"sync"
	"time"
)

// Breaker states, exposed as the deltaserved_breaker_state gauge.
const (
	breakerClosed = iota
	breakerOpen
)

// breaker is a consecutive-failure circuit breaker guarding the job queue:
// after `threshold` consecutive server-side job failures it opens and sheds
// new work with 503 + Retry-After. Each time its cooldown expires it lets
// one request through as a probe and re-arms the cooldown, so a probe that
// never reports back (a client-side failure, a full queue, an idempotent
// join) costs one cooldown, not the circuit. A server-side success closes
// the circuit. Client-side failures (bad graphs, client cancellations) are
// deliberately not fed to it — they say nothing about service health.
type breaker struct {
	mu        sync.Mutex
	threshold int // <= 0 disables the breaker entirely
	cooldown  time.Duration
	now       func() time.Time // test seam

	state       int
	consecutive int
	openedAt    time.Time // start of the current cooldown
	opens       uint64    // total closed -> open transitions
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether a new job may be admitted; when it is not, it also
// returns how long the caller should tell the client to wait.
func (b *breaker) allow() (bool, time.Duration) {
	if b.threshold <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerClosed {
		return true, 0
	}
	now := b.now()
	if remaining := b.openedAt.Add(b.cooldown).Sub(now); remaining > 0 {
		return false, remaining
	}
	// Cooldown elapsed: admit this request as the probe and re-arm.
	b.openedAt = now
	return true, 0
}

// success records a server-side job success, closing the circuit.
func (b *breaker) success() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.consecutive = 0
	b.state = breakerClosed
	b.mu.Unlock()
}

// failure records a server-side job failure; reaching the threshold opens
// the circuit. A failure while open (a failed probe) leaves it open, with
// the cooldown its admission re-armed.
func (b *breaker) failure() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.consecutive++
	if b.state == breakerClosed && b.consecutive >= b.threshold {
		b.state = breakerOpen
		b.openedAt = b.now()
		b.opens++
	}
	b.mu.Unlock()
}

// snapshot returns the current state and the total number of opens.
func (b *breaker) snapshot() (state int, opens uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens
}
