package tableload

import (
	"strings"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the loader: it must reject or load
// cleanly (a valid schema, every tuple inside it), never panic.
func FuzzRead(f *testing.F) {
	f.Add("a,b\n1,x\n2,y\n")
	f.Add("a\tb\n1\t2\n")
	f.Add("only-header\n")
	f.Add("")
	f.Add("a,b\n1\n")
	f.Add("a,b\n\"unterminated")
	f.Fuzz(func(t *testing.T, src string) {
		ds, err := Read(strings.NewReader(src), Options{MaxDomain: 1000})
		if err != nil {
			return
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("loaded dataset invalid: %v", err)
		}
	})
}
