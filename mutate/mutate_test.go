package main

import (
	"os"
	"path/filepath"
	"testing"
)

// Every mutant must still find its site in the tree: a rename elsewhere
// that orphans a row fails here, not an hour into a matrix run.
func TestEveryMutantApplies(t *testing.T) {
	ids := map[string]bool{}
	classes := map[string]bool{}
	for _, m := range mutants {
		if ids[m.ID] {
			t.Errorf("duplicate mutant id %s", m.ID)
		}
		ids[m.ID] = true
		classes[m.Class] = true
		src, err := os.ReadFile(filepath.Join("..", m.File))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Apply(src); err != nil {
			t.Error(err)
		}
	}
	if len(mutants) < 40 || len(classes) < 8 {
		t.Errorf("%d mutants over %d classes, want at least 40 over 8", len(mutants), len(classes))
	}
}
