package batchsched

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestArtifactsGolden pins every paper artifact byte for byte: each
// RegenerateArtifact id, in paper order, at 60-second windows, solver
// tolerance 0.01 and seed 4. Regenerate after an intentional behaviour
// change with:
//
//	go test -run TestArtifactsGolden -update-golden .
func TestArtifactsGolden(t *testing.T) {
	o := Options{Duration: 60 * Second, SolverTol: 0.01, Seed: 4}
	var got bytes.Buffer
	for _, id := range ArtifactIDs() {
		tbl, err := RegenerateArtifact(id, o)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== %s\n%s\n", id, tbl)
	}
	path := filepath.Join("testdata", "artifacts.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, got.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotParts := bytes.Split(got.Bytes(), []byte("\n== "))
		wantParts := bytes.Split(want, []byte("\n== "))
		for i := range gotParts {
			if i >= len(wantParts) || !bytes.Equal(gotParts[i], wantParts[i]) {
				id, _, _ := bytes.Cut(bytes.TrimPrefix(gotParts[i], []byte("== ")), []byte("\n"))
				t.Errorf("artifact %s deviates from %s", id, path)
			}
		}
		t.Errorf("artifacts deviate from %s (%d bytes vs %d); rerun with -update-golden if the change is intentional",
			path, got.Len(), len(want))
	}
}
