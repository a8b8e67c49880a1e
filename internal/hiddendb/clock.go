package hiddendb

import (
	"context"
	"time"
)

// Clock is the one time source of every timed layer: Latency, RateLimited,
// session TTLs and retry backoff. Readings are Durations since an
// arbitrary epoch, because every consumer only subtracts two of them.
// Wall is the real clock; *SimClock is the deterministic virtual one.
type Clock interface {
	// Now returns the time since the clock's epoch; it never decreases.
	Now() time.Duration
	// Sleep waits d or until ctx is done. A done ctx returns its error
	// without waiting, whatever d; d <= 0 on a live ctx returns nil.
	Sleep(ctx context.Context, d time.Duration) error
}

// Wall is the real-time Clock; its epoch is the process start.
var Wall Clock = wall{}

var epoch = time.Now()

type wall struct{}

func (wall) Now() time.Duration { return time.Since(epoch) }

func (wall) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil || d <= 0 {
		return err
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
