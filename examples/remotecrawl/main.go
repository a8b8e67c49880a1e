// Remotecrawl: crawl a hidden database over HTTP, end to end. The example
// starts a per-session hidden-database server on localhost (the census-like
// workload behind a form interface), dials it like any remote site with two
// distinct API tokens, and extracts the database both ways:
//
//   - alice crawls across the wire — every query a real HTTP round trip;
//   - bob asks the server to crawl for him via the streaming /crawl
//     endpoint: one round trip, tuples arriving as NDJSON progress lines.
//
// Each token draws on its own quota and journal, so the two crawls never
// touch each other's budgets — and both pay exactly the paper's query
// cost.
//
// Run with:
//
//	go run ./examples/remotecrawl
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"hidb"
)

func main() {
	// Serving side: a census-like hidden database (mixed schema, 45,222
	// tuples), k=1000, behind the library's per-session HTTP handler —
	// every client token gets its own query budget over the shared store.
	ds := hidb.AdultLike(11)
	local, err := hidb.NewLocalServer(ds.Schema, ds.Tuples, 1000, 42)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	handler := hidb.NewHTTPHandler(local, hidb.SessionConfig{Quota: 10000})
	server := &http.Server{Handler: handler}
	go server.Serve(ln)
	defer server.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving %s (n=%d, k=%d) at %s\n", ds.Name, ds.N(), local.K(), base)

	// Client one: alice discovers the form schema and runs the optimal
	// crawler across the wire — every query is an HTTP round trip against
	// her own session's budget.
	ctx := context.Background()
	alice, err := hidb.DialHTTPToken(ctx, base, "alice", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovered schema: %s\n\n", alice.Schema())

	start := time.Now()
	res, err := hidb.Crawl(ctx, alice, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice (client-side crawl): %d tuples in %d HTTP queries (%v)\n",
		len(res.Tuples), res.Queries, time.Since(start).Round(time.Millisecond))
	fmt.Printf("complete: %v\n\n", res.Tuples.EqualMultiset(ds.Tuples))

	// Client two: bob hands the work to the server — POST /crawl streams
	// every extracted tuple with his session's paid query count, all in a
	// single round trip. His budget is untouched by alice's crawl.
	bob, err := hidb.DialHTTPToken(ctx, base, "bob", nil)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	events := 0
	stream, err := bob.Crawl(ctx, "", 0, func(ev hidb.RemoteCrawlEvent) { events++ })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob (streaming /crawl): %d tuples in %d server-side queries (%v, %d stream events)\n",
		len(stream.Tuples), stream.Queries, time.Since(start).Round(time.Millisecond), events)
	fmt.Printf("complete: %v\n\n", stream.Tuples.EqualMultiset(ds.Tuples))

	// Client three: carol consumes the same stream as a Go iterator,
	// hangs up a quarter of the way in — cancelling only her own
	// server-side crawl; everything she paid for is journaled — and then
	// resumes with the skip cursor: the second stream replays her journal
	// for free and delivers only the tuples she has not seen.
	carol, err := hidb.DialHTTPToken(ctx, base, "carol", nil)
	if err != nil {
		log.Fatal(err)
	}
	var head hidb.Bag
	cutoff := ds.N() / 4
	for t, err := range carol.CrawlSeq(ctx, "", 0) {
		if err != nil {
			log.Fatal(err)
		}
		head = append(head, t)
		if len(head) == cutoff {
			break // tears down the stream; the server cancels carol's crawl
		}
	}
	rest, err := carol.Crawl(ctx, "", len(head), nil)
	if err != nil {
		log.Fatal(err)
	}
	combined := append(head, rest.Tuples...)
	fmt.Printf("carol (CrawlSeq + resume cursor): broke off after %d tuples, resumed %d more in %d total queries\n",
		cutoff, len(rest.Tuples), rest.Queries)
	fmt.Printf("complete: %v\n\n", combined.EqualMultiset(ds.Tuples))

	// Both clients paid exactly the in-process reference cost: the
	// algorithms never depend on where the server lives — or on who else
	// is crawling it.
	inproc, err := hidb.Crawl(ctx, local, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in-process reference: %d queries (alice equal: %v, bob equal: %v)\n",
		inproc.Queries, inproc.Queries == res.Queries, inproc.Queries == stream.Queries)
}
