package core

import (
	"context"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// DFS is the paper's baseline for categorical spaces (§3.1), and the
// crawling approach outlined in Jin et al. [15]: traverse the data-space
// tree depth-first, issuing each node's query and pruning a subtree as soon
// as its node query resolves.
type DFS struct{}

// Name implements Crawler.
func (DFS) Name() string { return "dfs" }

// Crawl implements Crawler. The server's schema must be purely categorical.
func (DFS) Crawl(ctx context.Context, srv hiddendb.Server, opts *Options) (*Result, error) {
	sch := srv.Schema()
	if !sch.IsCategorical() {
		return &Result{}, ErrWrongSpace
	}
	return runSession(ctx, srv, opts, false, func(s *session) error {
		return dfs(s, dataspace.UniverseQuery(sch), 0)
	})
}

// dfs processes the data-space-tree node at the given level, whose query has
// attributes 0..level-1 pinned to constants.
func dfs(s *session, q dataspace.Query, level int) error {
	res, err := s.Issue(q)
	if err != nil {
		return err
	}
	if res.Resolved() {
		s.Emit(res.Tuples)
		return nil
	}
	sch := q.Schema()
	if level == sch.Dims() {
		// A leaf (a single point of the data space) overflowed.
		return ErrUnsolvable
	}
	u := sch.Attr(level).DomainSize
	for v := int64(1); v <= int64(u); v++ {
		if err := dfs(s, q.WithValue(level, v), level+1); err != nil {
			return err
		}
	}
	return nil
}
