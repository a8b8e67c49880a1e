package hiddendb

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestClockContract pins the one Sleep every timed layer waits through, on
// both implementations: a done ctx wins over any d without waiting, d <= 0
// on a live ctx is a no-op, a completed Sleep(d) has moved Now by at least
// d (exactly d on virtual time), and Now never runs backwards.
func TestClockContract(t *testing.T) {
	for name, mk := range map[string]func() Clock{
		"wall": func() Clock { return Wall },
		"sim":  func() Clock { return NewSimClock() },
	} {
		t.Run(name, func(t *testing.T) {
			_, virtual := mk().(*SimClock)
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			for _, d := range []time.Duration{0, time.Hour} {
				c := mk()
				before, start := c.Now(), time.Now()
				if err := c.Sleep(cancelled, d); !errors.Is(err, context.Canceled) {
					t.Errorf("Sleep(cancelled, %v) = %v, want context.Canceled", d, err)
				}
				if waited := time.Since(start); waited > time.Second {
					t.Errorf("Sleep(cancelled, %v) waited %v", d, waited)
				}
				if virtual && c.Now() != before {
					t.Errorf("Sleep(cancelled, %v) moved virtual time %v -> %v", d, before, c.Now())
				}
			}

			for _, d := range []time.Duration{0, -time.Hour} {
				c := mk()
				start := time.Now()
				if err := c.Sleep(context.Background(), d); err != nil {
					t.Errorf("Sleep(live, %v) = %v, want nil", d, err)
				}
				if waited := time.Since(start); waited > time.Second {
					t.Errorf("Sleep(live, %v) waited %v", d, waited)
				}
			}

			c := mk()
			last := c.Now()
			for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, time.Millisecond} {
				if err := c.Sleep(context.Background(), d); err != nil {
					t.Fatal(err)
				}
				now := c.Now()
				if now-last < d || (virtual && now-last != d) {
					t.Errorf("Sleep(%v) moved Now by %v", d, now-last)
				}
				for i := 0; i < 100; i++ {
					again := c.Now()
					if again < now {
						t.Fatalf("Now went backwards: %v after %v", again, now)
					}
					now = again
				}
				last = now
			}
		})
	}
}
