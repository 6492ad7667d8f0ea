package carrier

import (
	"math/rand"
	"time"
)

// RetryPolicy bounds the retries of transient carrier failures (dial
// timeouts, peer resets) with exponential backoff and jitter. The backoff is
// wall-clock only — it models driver-level reconnect spinning and never
// touches virtual time, so retried runs keep bit-identical virtual
// schedules.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Values below 1 mean a single attempt, i.e. no retry.
	MaxAttempts int
	// BaseBackoff is the sleep after the first failed attempt; it doubles
	// per attempt. Zero means 50µs.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling. Zero means 2ms.
	MaxBackoff time.Duration
	// Seed makes the jitter sequence deterministic. The same policy value
	// produces the same sleeps.
	Seed int64
}

// DefaultRetryPolicy is the engine's dial and flush retry budget: three
// attempts, 50µs initial backoff.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 3, BaseBackoff: 50 * time.Microsecond, MaxBackoff: 2 * time.Millisecond}

// Backoffs returns the deterministic sleep schedule Do applies: element k
// is the sleep after the (k+1)-th failed attempt, so the schedule has
// MaxAttempts-1 entries. Every entry is full-jittered — uniform in
// [0, backoff_k] where backoff_k doubles from BaseBackoff up to MaxBackoff —
// and the jitter stream is a pure function of Seed: the same policy value
// returns the same schedule on every call, which is what makes retry timing
// assertable in tests.
func (p RetryPolicy) Backoffs() []time.Duration {
	attempts := max(p.MaxAttempts, 1)
	backoff := p.BaseBackoff
	if backoff <= 0 {
		backoff = 50 * time.Microsecond
	}
	maxBackoff := p.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Millisecond
	}
	if attempts == 1 {
		return nil
	}
	rng := rand.New(rand.NewSource(p.Seed + 1))
	out := make([]time.Duration, 0, attempts-1)
	for attempt := 0; attempt < attempts-1; attempt++ {
		// Full jitter: sleep a uniform fraction of the current backoff, so
		// colliding retriers decorrelate.
		out = append(out, time.Duration(rng.Int63n(int64(backoff)+1)))
		if backoff < maxBackoff {
			backoff = min(2*backoff, maxBackoff)
		}
	}
	return out
}

// Do runs op, retrying transient errors (per IsTransient) up to MaxAttempts
// with the Backoffs sleep schedule. The first non-transient error — and the
// last transient one — is returned as-is, preserving the typed error chain.
func (p RetryPolicy) Do(op func() error) error {
	attempts := max(p.MaxAttempts, 1)
	var sleeps []time.Duration
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if err = op(); err == nil || !IsTransient(err) {
			return err
		}
		if attempt == attempts-1 {
			break
		}
		if sleeps == nil {
			sleeps = p.Backoffs()
		}
		time.Sleep(sleeps[attempt])
	}
	return err
}

// DialRetry runs dial under the retry policy, returning the first
// successfully opened connection. Injected dial faults surface as
// ErrDialTimeout, so a bounded burst of them is absorbed here.
func DialRetry(p RetryPolicy, dial func() (Conn, error)) (Conn, error) {
	var conn Conn
	err := p.Do(func() (err error) {
		conn, err = dial()
		return err
	})
	if err != nil {
		return nil, err
	}
	return conn, nil
}
