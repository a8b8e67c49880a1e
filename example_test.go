package hidb_test

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"hidb"
)

// ExampleCrawl shows the shortest path from a hidden database to its full
// content: build a server (or dial a remote one) and call Crawl.
func ExampleCrawl() {
	schema := hidb.MustSchema([]hidb.Attribute{
		{Name: "Body", Kind: hidb.Categorical, DomainSize: 3},
		{Name: "Price", Kind: hidb.Numeric, Min: 0, Max: 100000},
	})
	inventory := hidb.Bag{
		{1, 9500}, {1, 9500}, {2, 4200}, {2, 21000}, {3, 7800},
	}
	srv, err := hidb.NewLocalServer(schema, inventory, 2, 42)
	if err != nil {
		log.Fatal(err)
	}
	res, err := hidb.Crawl(context.Background(), srv, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tuples:", len(res.Tuples), "complete:", res.Tuples.EqualMultiset(inventory))
	// Output: tuples: 5 complete: true
}

// ExampleNewCrawler runs a specific algorithm from the paper rather than
// the automatically selected one.
func ExampleNewCrawler() {
	schema := hidb.MustSchema([]hidb.Attribute{
		{Name: "State", Kind: hidb.Categorical, DomainSize: 4},
		{Name: "City", Kind: hidb.Categorical, DomainSize: 8},
	})
	var bag hidb.Bag
	for s := int64(1); s <= 4; s++ {
		for c := int64(1); c <= 8; c++ {
			bag = append(bag, hidb.Tuple{s, c})
		}
	}
	srv, err := hidb.NewLocalServer(schema, bag, 4, 7)
	if err != nil {
		log.Fatal(err)
	}
	crawler, err := hidb.NewCrawler("lazy-slice-cover")
	if err != nil {
		log.Fatal(err)
	}
	res, err := crawler.Crawl(context.Background(), srv, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("algorithm:", crawler.Name(), "complete:", res.Tuples.EqualMultiset(bag))
	// Output: algorithm: lazy-slice-cover complete: true
}

// ExampleWithJournal resumes a crawl across query budgets: the first
// session dies on its quota, the journal replays everything already paid
// for, and the second session finishes the job.
func ExampleWithJournal() {
	schema := hidb.MustSchema([]hidb.Attribute{
		{Name: "N", Kind: hidb.Numeric, Min: 0, Max: 1000},
	})
	var bag hidb.Bag
	for v := int64(0); v < 200; v++ {
		bag = append(bag, hidb.Tuple{v * 5})
	}
	jnl := hidb.NewJournal(schema, 8)

	var snapshot bytes.Buffer
	// Session 1: a tight budget interrupts the crawl.
	{
		srv, _ := hidb.NewLocalServer(schema, bag, 8, 42)
		wrapped, _ := hidb.WithJournal(hidb.NewQuotaServer(srv, 20), jnl)
		_, err := hidb.Crawl(context.Background(), wrapped, nil)
		fmt.Println("session 1:", err != nil)
		jnl.WriteTo(&snapshot) // persist state between sessions
	}
	// Session 2: a fresh budget plus the journal completes it.
	{
		jnl, _ := hidb.ReadJournal(&snapshot)
		srv, _ := hidb.NewLocalServer(schema, bag, 8, 42)
		wrapped, _ := hidb.WithJournal(srv, jnl)
		res, err := hidb.Crawl(context.Background(), wrapped, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("session 2 complete:", res.Tuples.EqualMultiset(bag))
	}
	// Output:
	// session 1: true
	// session 2 complete: true
}

// ExampleCrawlSeq consumes a crawl as a stream: tuples arrive in
// extraction order, and breaking out of the loop cancels the crawl.
func ExampleCrawlSeq() {
	schema := hidb.MustSchema([]hidb.Attribute{
		{Name: "Price", Kind: hidb.Numeric, Min: 0, Max: 10000},
	})
	var bag hidb.Bag
	for v := int64(0); v < 100; v++ {
		bag = append(bag, hidb.Tuple{v * 97})
	}
	srv, _ := hidb.NewLocalServer(schema, bag, 8, 42)

	streamed := 0
	for _, err := range hidb.CrawlSeq(context.Background(), srv, nil) {
		if err != nil {
			log.Fatal(err) // a *hidb.PartialCrawlError carrying the paid cost
		}
		if streamed++; streamed == 10 {
			break // enough: cancels the crawl, no goroutines left behind
		}
	}
	fmt.Println("streamed:", streamed)
	// Output: streamed: 10
}

// ExampleParallelCrawler keeps several queries in flight: same query cost,
// wall-clock divided by the effective parallelism.
func ExampleParallelCrawler() {
	schema := hidb.MustSchema([]hidb.Attribute{
		{Name: "X", Kind: hidb.Numeric, Min: 0, Max: 1 << 20},
	})
	var bag hidb.Bag
	for v := int64(0); v < 500; v++ {
		bag = append(bag, hidb.Tuple{v * 997})
	}
	srv, _ := hidb.NewLocalServer(schema, bag, 16, 42)

	seq, _ := hidb.Crawl(context.Background(), srv, nil)
	par, err := hidb.ParallelCrawler{Workers: 8, InFlight: 4}.Crawl(context.Background(), srv, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("same cost:", par.Queries == seq.Queries,
		"complete:", par.Tuples.EqualMultiset(bag))
	// Output: same cost: true complete: true
}
