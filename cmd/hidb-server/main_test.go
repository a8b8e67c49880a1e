package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"hidb"
	"hidb/internal/datagen"
)

func adultN(t *testing.T, n int) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.ByName("adult", n, 11)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// storeFiles lists the store files openDiskServer left in dir.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.hidb"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDiskStoreFollowsInputs pins that a disk store is reused only for the
// inputs it was built from: a changed dataset size or priority seed in the
// same data dir serves the new relation, never the old file.
func TestDiskStoreFollowsInputs(t *testing.T) {
	dir := t.TempDir()
	if _, err := openDiskServer(dir, adultN(t, 2000), 256, 42, 1); err != nil {
		t.Fatal(err)
	}
	ds := adultN(t, 3000)
	srv, err := openDiskServer(dir, ds, 256, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Size(); got != 3000 {
		t.Fatalf("n=3000 after an n=2000 build: Size() = %d", got)
	}

	// k = n, so the universe query answers the whole store in rank order.
	srv, err = openDiskServer(dir, ds, ds.N(), 43, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := hidb.RankOrder(ds.Tuples, 43)
	res, err := srv.Answer(context.Background(), hidb.UniverseQuery(ds.Schema))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Tuples
	if len(got) != len(want) || res.Overflow {
		t.Fatalf("store answered %d tuples (overflow %v), want %d", len(got), res.Overflow, len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("rank %d: store %v, RankOrder under the new seed %v", i, got[i], want[i])
		}
	}
	if files := storeFiles(t, dir); len(files) != 3 {
		t.Errorf("three distinct inputs left %d store files: %v", len(files), files)
	}
}

// TestDiskStoreReused pins the other half: the same inputs twice open the
// existing file instead of rebuilding it.
func TestDiskStoreReused(t *testing.T) {
	dir := t.TempDir()
	ds := adultN(t, 2000)
	if _, err := openDiskServer(dir, ds, 256, 42, 2); err != nil {
		t.Fatal(err)
	}
	files := storeFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("one build left %d store files: %v", len(files), files)
	}
	before, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	srv, err := openDiskServer(dir, ds, 256, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Shards() != 2 {
		t.Errorf("reopened store has %d bands, want 2", srv.Shards())
	}
	after, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || len(storeFiles(t, dir)) != 1 {
		t.Error("the same inputs rebuilt the store instead of reopening it")
	}
}
