package datagen

import (
	"testing"
)

func TestTieredDeterministic(t *testing.T) {
	for _, p := range Patterns {
		a := Tiered(p, Tier10K, 7)
		b := Tiered(p, Tier10K, 7)
		if len(a.Tuples) != len(b.Tuples) {
			t.Fatalf("%v: lengths differ: %d vs %d", p, len(a.Tuples), len(b.Tuples))
		}
		for i := range a.Tuples {
			if !a.Tuples[i].Equal(b.Tuples[i]) {
				t.Fatalf("%v: tuple %d differs between identical seeds: %v vs %v",
					p, i, a.Tuples[i], b.Tuples[i])
			}
		}
		c := Tiered(p, Tier10K, 8)
		same := true
		for i := range a.Tuples {
			if !a.Tuples[i].Equal(c.Tuples[i]) {
				same = false
				break
			}
		}
		if p != PatternSequential && same {
			t.Errorf("%v: different seeds produced identical datasets", p)
		}
	}
}

func TestTieredValidatesAtEveryTier(t *testing.T) {
	for _, p := range Patterns {
		for _, tier := range []Tier{Tier10K, Tier100K} {
			d := Tiered(p, tier, 1)
			if d.N() != tier.N() {
				t.Fatalf("%v/%v: got %d tuples, want %d", p, tier, d.N(), tier.N())
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("%v/%v: %v", p, tier, err)
			}
			want := p.String() + "-" + tier.String()
			if d.Name != want {
				t.Errorf("%v/%v: name %q, want %q", p, tier, d.Name, want)
			}
		}
	}
}

// TestPathologicalNeedle pins the property the planner benchmarks rely on:
// the needle conjunction matches exactly the bottom 1/1024 of the ranks and
// nothing above them, while each needle predicate alone stays ~1/6
// selective.
func TestPathologicalNeedle(t *testing.T) {
	d := Tiered(PatternPathological, Tier10K, 3)
	n := d.N()
	tail := n - n/pathoTailFrac
	single := 0
	for r, tu := range d.Tuples {
		needle := tu[0] == PathoNeedle && tu[1] == PathoNeedle && tu[2] == PathoNeedle
		if r < tail && needle {
			t.Fatalf("needle conjunction above the tail, at rank %d", r)
		}
		if r >= tail && !needle {
			t.Fatalf("non-needle tuple inside the tail, at rank %d", r)
		}
		if tu[0] == PathoNeedle {
			single++
		}
	}
	// C1 = needle alone should match roughly n/6 (tail included) — broad
	// enough to hurt a posting walk, yet under n/4.
	// Accept a generous band so the test never flakes on seed choice.
	if single < n/10 || single > n/4 {
		t.Errorf("single-predicate needle matches = %d, want about n/6 = %d", single, n/6)
	}
}

func TestTierAndPatternStrings(t *testing.T) {
	if Tier1M.N() != 1_000_000 || Tier100K.N() != 100_000 || Tier10K.N() != 10_000 {
		t.Fatalf("tier sizes wrong: %d %d %d", Tier10K.N(), Tier100K.N(), Tier1M.N())
	}
	if Tier(99).N() != 0 {
		t.Errorf("unknown tier should size 0")
	}
	if s := Pattern(99).String(); s != "pattern(99)" {
		t.Errorf("unknown pattern string = %q", s)
	}
	if s := Tier(99).String(); s != "tier(99)" {
		t.Errorf("unknown tier string = %q", s)
	}
}

// TestSequentialRuns pins the clustering property that makes the sequential
// pattern exercise run containers: C3 is constant over kilorank blocks.
func TestSequentialRuns(t *testing.T) {
	d := Tiered(PatternSequential, Tier10K, 0)
	for r := 1; r < 1024 && r < d.N(); r++ {
		if d.Tuples[r][2] != d.Tuples[0][2] {
			t.Fatalf("C3 changed at rank %d within the first kilorank block", r)
		}
	}
	if d.Tuples[0][4] != 0 || d.Tuples[1][4] != 1 {
		t.Errorf("N1 should enumerate ranks, got %d, %d", d.Tuples[0][4], d.Tuples[1][4])
	}
}
