package carrier

// RetryPolicy bounds the retries of transient carrier failures (dial
// timeouts, peer resets). A retry follows its failure at once: chaos decides
// every fault from its seed and the event's coordinates, never from elapsed
// time, and a retried flush takes a fresh sequence number, so waiting could
// not change whether the retry succeeds. It would only stall the kernel
// turn or the admission pause the retry runs in.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Values below 1 mean a single attempt, i.e. no retry.
	MaxAttempts int
}

// DefaultRetryPolicy is the engine's dial and flush retry budget: three
// attempts.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 3}

// Do runs op, retrying transient errors (per IsTransient) up to MaxAttempts
// times in all. The first non-transient error — and the last transient one —
// is returned as-is, preserving the typed error chain.
func (p RetryPolicy) Do(op func() error) error {
	var err error
	for range max(p.MaxAttempts, 1) {
		if err = op(); err == nil || !IsTransient(err) {
			return err
		}
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
