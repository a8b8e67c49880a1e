// Command hidb-crawl extracts a complete hidden database, either from a
// remote HTTP server (see hidb-server) or from an in-process synthetic
// dataset, and reports the query cost — the paper's efficiency metric.
//
// Usage:
//
//	hidb-crawl -url http://localhost:8080                  # remote crawl
//	hidb-crawl -dataset yahoo -k 1000                      # in-process
//	hidb-crawl -dataset nsf -k 256 -algo dfs -progress
//	hidb-crawl -dataset adult -k 256 -out tuples.tsv
//	hidb-crawl -url ... -journal state.jnl                 # resumable
//	hidb-crawl -url ... -workers 16                        # parallel, batched
//	hidb-crawl -url ... -workers 16 -inflight 4            # deepen the pipeline
//
// With -workers N the crawler drains ready queries into batches of up to N
// per round trip and keeps up to -inflight round trips (default 2) flying
// at once — the next batch departs the moment a flight slot frees, so the
// connection never idles between round trips. The query cost is identical
// to the sequential crawl, the round-trip count ~N times smaller;
// -inflight 1 restores the flush-on-completion batcher that waits out each
// round trip before dispatching the next.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hidb"
	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/progress"
)

// loadJournal reads the journal file or starts a fresh one matching srv.
// A torn or corrupted file (crash mid-persist) is recovered to its longest
// valid prefix — the damaged original is quarantined as <path>.corrupt —
// so an interrupted session never loses everything it paid for.
func loadJournal(path string, srv hidb.Server) *hidb.Journal {
	j, err := hidb.LoadJournalFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return hidb.NewJournal(srv.Schema(), srv.K())
	}
	var ce *hidb.JournalCorruptionError
	if errors.As(err, &ce) {
		log.Printf("journal %s was damaged (%v); recovered %d entries, damaged tail quarantined as %s.corrupt", path, ce.Reason, ce.Entries, path)
		if j == nil {
			return hidb.NewJournal(srv.Schema(), srv.K())
		}
		return j
	}
	if err != nil {
		log.Printf("reading journal %s: %v", path, err)
		os.Exit(1)
	}
	return j
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hidb-crawl: ")

	url := flag.String("url", "", "remote hidden database base URL (overrides -dataset)")
	dataset := flag.String("dataset", "yahoo", "in-process dataset: yahoo, nsf, adult, adult-numeric")
	algo := flag.String("algo", "", "algorithm: "+strings.Join(core.Names(), ", ")+" (default: best for the schema)")
	k := flag.Int("k", 1000, "return limit for in-process serving")
	n := flag.Int("n", 0, "override in-process dataset cardinality (0 = paper size)")
	seed := flag.Uint64("seed", 11, "dataset generator seed")
	prioritySeed := flag.Uint64("priority-seed", 42, "priority permutation seed")
	out := flag.String("out", "", "write extracted tuples as TSV to this file")
	showProgress := flag.Bool("progress", false, "print the progressiveness curve deciles")
	journalPath := flag.String("journal", "", "journal file for resumable crawls (created if absent)")
	workers := flag.Int("workers", 1, "above 1, crawl in parallel with up to this many queries per AnswerBatch round trip (same cost, less wall-clock)")
	inflight := flag.Int("inflight", 0, "pipeline depth with -workers above 1: overlapped AnswerBatch round trips of up to -workers queries each (0 = default 2; 1 = flush-on-completion)")
	token := flag.String("token", "", "API token sent as Authorization: Bearer (per-session quota/journal on the server)")
	retries := flag.Int("retries", 0, "retry transient remote failures up to this many attempts per operation, with backoff (0 = fail fast); retried queries replay from the server's session journal for free")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "after SIGINT/SIGTERM, force-exit if the crawl has not wound down within this long (the journal saved so far stays intact)")
	flag.Parse()

	// SIGINT/SIGTERM cancel the crawl between queries instead of killing
	// the process: with -journal, everything already paid is persisted
	// below, so the next run resumes for free. A watchdog force-exits if
	// the wind-down (a stuck round trip, a slow journal write) outlives
	// -drain-timeout — the atomic journal save guarantees the last
	// complete snapshot survives even then.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		timer := time.NewTimer(*drainTimeout)
		defer timer.Stop()
		<-timer.C
		log.Printf("wind-down exceeded -drain-timeout %v; forcing exit", *drainTimeout)
		os.Exit(1)
	}()

	var srv hidb.Server
	var groundTruth hidb.Bag
	if *url != "" {
		var c *hidb.RemoteClient
		var err error
		if *retries > 0 {
			c, err = hidb.DialHTTPRetry(ctx, *url, *token, nil, hidb.RetryPolicy{MaxAttempts: *retries})
		} else {
			c, err = hidb.DialHTTPToken(ctx, *url, *token, nil)
		}
		if err != nil {
			log.Print(err)
			os.Exit(1)
		}
		srv = c
		log.Printf("remote schema: %s (k=%d)", c.Schema(), c.K())
	} else {
		ds, err := datagen.ByName(*dataset, *n, *seed)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		local, err := hidb.NewLocalServer(ds.Schema, ds.Tuples, *k, *prioritySeed)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		srv = local
		groundTruth = ds.Tuples
		log.Printf("in-process %s: n=%d, k=%d", ds.Name, ds.N(), *k)
	}

	crawler := hidb.BestCrawler(srv.Schema())
	if *algo != "" {
		var err error
		crawler, err = hidb.NewCrawler(*algo)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
	}
	if *workers > 1 {
		if *algo != "" {
			log.Printf("-workers overrides -algo: the parallel engine runs the hybrid family")
		}
		crawler = hidb.ParallelCrawler{Workers: *workers, InFlight: *inflight}
	} else if *inflight != 0 {
		log.Printf("-inflight is ignored without -workers above 1: the sequential crawl keeps one query in flight")
	}

	// Resumable crawls: replay the journal in front of the server, and
	// persist it afterwards — even when the crawl dies on a quota.
	var jnl *hidb.Journal
	if *journalPath != "" {
		jnl = loadJournal(*journalPath, srv)
		before := jnl.Len()
		wrapped, err := hidb.WithJournal(srv, jnl)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		srv = wrapped
		log.Printf("journal %s: %d queries already paid for", *journalPath, before)
	}

	opts := &hidb.CrawlOptions{}
	var points []hidb.CurvePoint
	if *showProgress {
		opts.OnProgress = func(p hidb.CurvePoint) { points = append(points, p) }
	}
	start := time.Now()
	res, err := crawler.Crawl(ctx, srv, opts)
	if jnl != nil {
		if serr := hidb.SaveJournalFile(*journalPath, jnl); serr != nil {
			log.Printf("saving journal: %v", serr)
		} else {
			log.Printf("journal saved: %d total paid queries", jnl.Len())
		}
	}
	if err != nil {
		log.Printf("crawl failed: %v", err)
		if (errors.Is(err, hidb.ErrQuotaExceeded) || errors.Is(err, context.Canceled)) && jnl != nil {
			log.Print("re-run with the same -journal to resume where this session stopped")
		}
		os.Exit(1)
	}
	elapsed := time.Since(start)

	fmt.Printf("algorithm   %s\n", crawler.Name())
	fmt.Printf("tuples      %d\n", len(res.Tuples))
	fmt.Printf("queries     %d (%d resolved, %d overflowed, %d skipped)\n",
		res.Queries, res.Resolved, res.Overflowed, res.Skipped)
	fmt.Printf("elapsed     %v\n", elapsed.Round(time.Millisecond))
	if groundTruth != nil {
		fmt.Printf("complete    %v\n", res.Tuples.EqualMultiset(groundTruth))
	}
	if *showProgress {
		curve := progress.Normalize(points, len(res.Tuples))
		fmt.Printf("progress    %s (max deviation from linear: %.1f%%)\n",
			curve, curve.MaxDeviation()*100)
	}

	if *out != "" {
		if err := writeTSV(*out, srv.Schema(), res.Tuples); err != nil {
			log.Print(err)
			os.Exit(1)
		}
		log.Printf("wrote %d tuples to %s", len(res.Tuples), *out)
	}
}

func writeTSV(path string, schema *hidb.Schema, tuples hidb.Bag) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for i := 0; i < schema.Dims(); i++ {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, schema.Attr(i).Name)
	}
	fmt.Fprintln(w)
	for _, t := range tuples {
		for i, v := range t {
			if i > 0 {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprint(w, v)
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
