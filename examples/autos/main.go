// Autos: crawl the Yahoo! Autos-like workload — the scenario that motivates
// the paper's introduction (Figure 1). Demonstrates:
//
//   - the k-dependence of the crawl cost (Figure 12's sweep);
//   - unsolvability detection when k is below the duplicate count (§1.1);
//   - the §1.3 attribute-dependency heuristic (skip make × body-style
//     combinations that cannot exist), which can only reduce the cost;
//   - near-linear progressiveness (Figure 13).
//
// Run with:
//
//	go run ./examples/autos
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"hidb"
)

func main() {
	ds := hidb.YahooLike(11)
	fmt.Printf("dataset %s: %d listings over %s\n\n", ds.Name, ds.N(), ds.Schema)

	// Cost vs k. At k=64 the dataset is unextractable: one dealer listed
	// the same car more than 64 times, and an overflowing point query can
	// never be completed (§1.1) — exactly the gap in the paper's Figure 12.
	fmt.Println("cost of a complete crawl vs the server's return limit k:")
	for _, k := range []int{64, 128, 256, 512, 1024} {
		srv, err := hidb.NewLocalServer(ds.Schema, ds.Tuples, k, 42)
		if err != nil {
			log.Fatal(err)
		}
		res, err := hidb.Crawl(context.Background(), srv, nil)
		if errors.Is(err, hidb.ErrUnsolvable) {
			fmt.Printf("  k=%-5d unsolvable (a point holds >%d duplicates)\n", k, k)
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  k=%-5d %5d queries for %d tuples (ideal n/k = %d)\n",
			k, res.Queries, len(res.Tuples), ds.N()/k)
	}

	// The dependency heuristic: a crawler that knows which makes sell
	// which body styles skips queries covering impossible combinations.
	srv, err := hidb.NewLocalServer(ds.Schema, ds.Tuples, 256, 42)
	if err != nil {
		log.Fatal(err)
	}
	valid := make(map[[2]int64]bool)
	for _, t := range ds.Tuples {
		valid[[2]int64{t[1], t[2]}] = true // (body-style, make) seen in data
	}
	filter := func(q hidb.Query) bool {
		b, m := q.Pred(1), q.Pred(2)
		if b.Wild || m.Wild {
			return true
		}
		return valid[[2]int64{b.Value, m.Value}]
	}
	var curve []hidb.CurvePoint
	res, err := hidb.Crawl(context.Background(), srv, &hidb.CrawlOptions{
		QueryFilter: filter,
		OnProgress:  func(p hidb.CurvePoint) { curve = append(curve, p) },
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith make×body-style dependency knowledge (k=256): %d queries, %d skipped\n",
		res.Queries, res.Skipped)
	fmt.Printf("complete: %v\n", res.Tuples.EqualMultiset(ds.Tuples))

	// Progressiveness: tuples arrive steadily, so the crawl can be
	// stopped at any budget and still have proportionate coverage.
	fmt.Println("\nprogressiveness (% of tuples after each 10% of queries):")
	total := res.Queries
	final := len(res.Tuples)
	curve[len(curve)-1].Tuples = final // the last answer's tuples follow its point
	decile := 1
	for _, p := range curve {
		for decile <= 10 && p.Queries*10 >= total*decile {
			fmt.Printf("  %3d%% of queries -> %3d%% of tuples\n",
				decile*10, p.Tuples*100/final)
			decile++
		}
	}
}
