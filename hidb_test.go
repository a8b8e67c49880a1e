package hidb_test

import (
	"context"
	"errors"
	"maps"
	"net/http/httptest"
	"testing"

	"hidb"
)

func carSchema(t *testing.T) *hidb.Schema {
	t.Helper()
	return hidb.MustSchema([]hidb.Attribute{
		{Name: "Body", Kind: hidb.Categorical, DomainSize: 3},
		{Name: "Price", Kind: hidb.Numeric, Min: 0, Max: 100000},
	})
}

func carBag() hidb.Bag {
	return hidb.Bag{
		{1, 9500}, {1, 9500}, {1, 14300}, {2, 4200},
		{2, 21000}, {3, 7800}, {3, 12650}, {3, 30500},
	}
}

func TestCrawlPicksAlgorithmAndCompletes(t *testing.T) {
	srv, err := hidb.NewLocalServer(carSchema(t), carBag(), 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hidb.Crawl(context.Background(), srv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tuples.EqualMultiset(carBag()) {
		t.Fatal("facade crawl incomplete")
	}
	if res.Queries < len(carBag())/2 {
		t.Fatalf("impossible cost %d", res.Queries)
	}
}

// TestPlannerAdaptsDuringCrawl pins per-query planning: a crawl narrows
// one query shape with ever tighter constants, so the planner must move the
// narrow queries off the early-exit scan the broad ones pick. It pins each
// crawl's exact access-path mix, one execution per query, so a change to
// the cost model that moves any plan must update these numbers on purpose.
func TestPlannerAdaptsDuringCrawl(t *testing.T) {
	ds := hidb.YahooLike(9)
	for _, tc := range []struct {
		k, queries int
		paths      map[string]int64
	}{
		{256, 1091, map[string]int64{"bitmap": 173, "posting": 786, "range": 87, "scan": 45}},
		{1000, 281, map[string]int64{"bitmap": 61, "posting": 198, "range": 8, "scan": 14}},
	} {
		srv, err := hidb.NewLocalServer(ds.Schema, ds.Tuples, tc.k, 9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := hidb.Crawl(context.Background(), srv, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Queries != tc.queries {
			t.Errorf("k=%d: crawl paid %d queries, want %d", tc.k, res.Queries, tc.queries)
		}
		if got := srv.PlanStats().Paths; !maps.Equal(got, tc.paths) {
			t.Errorf("k=%d: access paths %v, want %v", tc.k, got, tc.paths)
		}
	}
}

func TestBestCrawlerSelection(t *testing.T) {
	mixed := carSchema(t)
	if got := hidb.BestCrawler(mixed).Name(); got != "hybrid" {
		t.Errorf("mixed -> %s", got)
	}
	num := hidb.MustSchema([]hidb.Attribute{{Name: "N", Kind: hidb.Numeric}})
	if got := hidb.BestCrawler(num).Name(); got != "rank-shrink" {
		t.Errorf("numeric -> %s", got)
	}
	cat := hidb.MustSchema([]hidb.Attribute{{Name: "C", Kind: hidb.Categorical, DomainSize: 2}})
	if got := hidb.BestCrawler(cat).Name(); got != "lazy-slice-cover" {
		t.Errorf("categorical -> %s", got)
	}
}

func TestNewCrawlerNames(t *testing.T) {
	for _, name := range hidb.CrawlerNames() {
		if _, err := hidb.NewCrawler(name); err != nil {
			t.Errorf("NewCrawler(%q): %v", name, err)
		}
	}
	if _, err := hidb.NewCrawler("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestUnsolvableSurfaced(t *testing.T) {
	bag := hidb.Bag{}
	for i := 0; i < 5; i++ {
		bag = append(bag, hidb.Tuple{1, 777})
	}
	srv, err := hidb.NewLocalServer(carSchema(t), bag, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = hidb.Crawl(context.Background(), srv, nil)
	if !errors.Is(err, hidb.ErrUnsolvable) {
		t.Fatalf("err = %v, want ErrUnsolvable", err)
	}
}

func TestHTTPEndToEndThroughFacade(t *testing.T) {
	srv, err := hidb.NewLocalServer(carSchema(t), carBag(), 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hidb.NewHTTPHandler(srv, hidb.SessionConfig{}))
	defer ts.Close()

	remote, err := hidb.DialHTTP(context.Background(), ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hidb.Crawl(context.Background(), remote, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tuples.EqualMultiset(carBag()) {
		t.Fatal("remote facade crawl incomplete")
	}
}

func TestHTTPQuotaThroughFacade(t *testing.T) {
	srv, err := hidb.NewLocalServer(carSchema(t), carBag(), 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hidb.NewHTTPHandler(srv, hidb.SessionConfig{Quota: 2}))
	defer ts.Close()
	remote, err := hidb.DialHTTP(context.Background(), ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = hidb.Crawl(context.Background(), remote, nil)
	if !errors.Is(err, hidb.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
}

func TestWorkloadGeneratorsExported(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size generators skipped in -short mode")
	}
	y := hidb.YahooLike(1)
	if y.N() != 69768 {
		t.Errorf("YahooLike n = %d", y.N())
	}
	n := hidb.NSFLike(1)
	if n.N() != 47816 {
		t.Errorf("NSFLike n = %d", n.N())
	}
	a := hidb.AdultLike(1)
	if a.N() != 45222 {
		t.Errorf("AdultLike n = %d", a.N())
	}
	hn, err := hidb.HardNumeric(5, 2, 4)
	if err != nil || hn.N() != 5*(4+2) {
		t.Errorf("HardNumeric: n=%d err=%v", hn.N(), err)
	}
	hc, err := hidb.HardCategorical(3, 3)
	if err != nil || hc.N() != 6*3 {
		t.Errorf("HardCategorical: n=%d err=%v", hc.N(), err)
	}
}

func TestQueryConstruction(t *testing.T) {
	sch := carSchema(t)
	q, err := hidb.NewQuery(sch, []hidb.Pred{
		{Value: 2},
		{Lo: 1000, Hi: 5000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !q.Covers(hidb.Tuple{2, 4200}) || q.Covers(hidb.Tuple{1, 4200}) {
		t.Error("facade query coverage wrong")
	}
	u := hidb.UniverseQuery(sch)
	if !u.Covers(hidb.Tuple{3, 99999}) {
		t.Error("universe coverage wrong")
	}
}
