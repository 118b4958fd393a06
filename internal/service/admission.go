package service

import (
	"errors"
	"sync"
	"time"
)

// ErrQuotaExceeded is returned by Submit when the submitting client's
// token bucket is empty; HTTP callers see it as 429 Too Many Requests with
// a Retry-After header. The error is typed so in-process callers can branch
// on it with errors.Is.
var ErrQuotaExceeded = errors.New("service: client quota exceeded")

// quotas is a per-client token-bucket table. Each client accrues rate
// tokens per second up to burst; a submission spends one token. Buckets are
// created on first sight and pruned once they are both full and idle, so
// the table's size tracks the active client set rather than the lifetime
// one.
type quotas struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	buckets map[string]*bucket
	now     func() time.Time // test seam
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newQuotas(rate float64, burst int) *quotas {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &quotas{rate: rate, burst: float64(burst), buckets: make(map[string]*bucket), now: time.Now}
}

// allow spends one token from client's bucket, reporting false (and the
// wait until a token accrues) when it is empty.
func (q *quotas) allow(client string) (ok bool, retryAfter time.Duration) {
	if q == nil || client == "" {
		return true, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	b, found := q.buckets[client]
	if !found {
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[client] = b
		if len(q.buckets) > 4096 {
			q.pruneLocked(now)
		}
	}
	b.tokens = b.tokens + now.Sub(b.last).Seconds()*q.rate
	if b.tokens > q.burst {
		b.tokens = q.burst
	}
	b.last = now
	if b.tokens < 1 {
		need := (1 - b.tokens) / q.rate
		return false, time.Duration(need * float64(time.Second))
	}
	b.tokens--
	return true, 0
}

// pruneLocked drops buckets that have been idle long enough to refill
// completely — they are indistinguishable from fresh ones.
func (q *quotas) pruneLocked(now time.Time) {
	refill := time.Duration(q.burst / q.rate * float64(time.Second))
	for id, b := range q.buckets {
		if now.Sub(b.last) > refill {
			delete(q.buckets, id)
		}
	}
}
