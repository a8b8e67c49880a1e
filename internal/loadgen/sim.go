package loadgen

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"time"

	"hidb/internal/datagen"
	"hidb/internal/hiddendb"
	"hidb/internal/httpserver"
	"hidb/internal/session"
	"hidb/internal/wire"
)

// RunSim performs the whole load run in-process under a virtual clock:
// the handler is built over the generated dataset with per-token sessions
// and shedding, every round trip costs Config.Latency of virtual time
// (hiddendb.Latency on the SimClock), and every think pause is a virtual
// sleep. The run finishes in milliseconds of real time regardless of the
// simulated latency, and its Report — sheds, quota rejections, latency
// percentiles, the virtual elapsed time — is bit-reproducible from
// Config.Seed.
//
// # The deadline-residue scheme
//
// Determinism needs more than seeded RNGs: two virtual clients waking at
// the same virtual instant run concurrently for real, and whichever
// reaches the in-flight gate first wins the last slot — a data race in
// the shed counts. RunSim makes ties impossible instead of racing them:
// with S sessions, every sleep duration is rounded up to a multiple of
// S nanoseconds (the round-trip latency too), and client i's first sleep
// alone is lengthened by i extra nanoseconds. Every later deadline of
// client i therefore stays ≡ i (mod S) — distinct residues, so no two
// clients ever share a deadline, at most one goroutine wakes per virtual
// instant, and the whole run serializes into one deterministic order
// while the *virtual intervals* still overlap exactly as real traffic
// would (a client mid-round-trip holds its in-flight slot while others
// wake, probe the gate, and shed). The rounding perturbs durations by
// under S nanoseconds — noise against millisecond-scale latencies.
func RunSim(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	ds, err := datagen.ByName(cfg.Dataset, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	k := cfg.K
	if m := ds.Tuples.MaxMultiplicity(); m > k {
		k = m
	}
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, k, cfg.Seed)
	if err != nil {
		return nil, err
	}
	clock := hiddendb.NewSimClock()
	stride := time.Duration(cfg.Sessions)
	srv := hiddendb.NewLatency(local, quantUp(cfg.Latency, stride), clock)
	h := httpserver.New(srv,
		httpserver.WithSessions(session.Config{
			Quota:       cfg.Quota,
			MaxSessions: cfg.Sessions,
		}),
		httpserver.WithShedding(cfg.MaxInFlight))

	be := &simBackend{h: h, clock: clock, stride: stride}
	d := newDriver(cfg, ds.Schema, be)

	// Warmup runs sequentially on this goroutine — outside the hold
	// protocol its virtual sleeps resolve instantly — and registers every
	// legitimate token, filling the session table before concurrent ops
	// begin so the BadToken sheds are deterministic.
	for _, c := range d.clients {
		d.warmup(c)
	}

	// Hold while spawning so the clock cannot advance before every
	// client's first sleep is registered; each client's hold is minted
	// here, before its goroutine exists.
	clock.Hold()
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		clock.Hold()
		go func(c *client) {
			defer wg.Done()
			defer clock.Release()
			d.run(c)
		}(c)
	}
	clock.Release()
	wg.Wait()

	return d.report(clock.Now(), h.Queries()), nil
}

// quantUp rounds d up to a positive multiple of stride.
func quantUp(d, stride time.Duration) time.Duration {
	if stride <= 1 {
		return d
	}
	if r := d % stride; r != 0 {
		d += stride - r
	}
	if d <= 0 {
		d = stride
	}
	return d
}

// simBackend serves ops by calling the handler in-process, measuring
// elapsed time on the virtual clock.
type simBackend struct {
	h      *httpserver.Handler
	clock  *hiddendb.SimClock
	stride time.Duration
}

func (b *simBackend) sleep(c *client, d time.Duration) {
	d = quantUp(d, b.stride)
	if !c.phased {
		// The client's one-time residue offset; see RunSim's doc.
		d += time.Duration(c.index)
		c.phased = true
	}
	b.clock.Sleep(context.Background(), d)
}

func (b *simBackend) do(c *client, method, path, token string, body []byte, stopAfter int) (opResult, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, "http://loadgen.sim"+path, bytes.NewReader(body))
	if err != nil {
		return opResult{}, err
	}
	if token != "" {
		wire.SetBearer(req.Header, token)
	}
	w := &memWriter{cancel: cancel, stopAfter: stopAfter}
	start := b.clock.Now()
	b.h.ServeHTTP(w, req)
	return opResult{
		status:  w.statusCode(),
		body:    w.buf.Bytes(),
		elapsed: b.clock.Now() - start,
	}, nil
}

// memWriter is the in-process ResponseWriter: it buffers the response and,
// with stopAfter set, cancels the request after that many complete lines —
// the virtual client hanging up mid-stream.
type memWriter struct {
	header    http.Header
	status    int
	buf       bytes.Buffer
	lines     int
	stopAfter int
	cancel    context.CancelFunc
	cancelled bool
}

func (w *memWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *memWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *memWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	n, err := w.buf.Write(p)
	if w.stopAfter > 0 && !w.cancelled {
		for _, ch := range p {
			if ch == '\n' {
				w.lines++
			}
		}
		if w.lines >= w.stopAfter {
			w.cancelled = true
			w.cancel()
		}
	}
	return n, err
}

// Flush makes the handler's streaming path exercise its flush branch.
func (w *memWriter) Flush() {}

func (w *memWriter) statusCode() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}
