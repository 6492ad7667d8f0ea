package carrier

import (
	"errors"
	"fmt"
	"testing"
)

// TestDoCountsAttempts asserts Do makes exactly MaxAttempts attempts at a
// transient error and returns the last one as-is, and that a non-transient
// error ends the loop at once.
func TestDoCountsAttempts(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3}
	calls := 0
	werr := fmt.Errorf("dial: %w", ErrDialTimeout)
	err := p.Do(func() error { calls++; return werr })
	if calls != 3 {
		t.Fatalf("Do made %d attempts, want 3", calls)
	}
	if !errors.Is(err, ErrDialTimeout) {
		t.Fatalf("Do returned %v, want the typed transient chain", err)
	}
	// Non-transient errors short-circuit without retries.
	calls = 0
	perm := errors.New("permanent")
	if err := p.Do(func() error { calls++; return perm }); err != perm || calls != 1 {
		t.Fatalf("Do on permanent error: err=%v calls=%d, want the error after 1 attempt", err, calls)
	}
}
