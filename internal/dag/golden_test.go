package dag_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fppc/internal/assays"
	"fppc/internal/dag"
)

var update = flag.Bool("update", false, "rewrite testdata/table1_fingerprints.golden")

// TestTable1FingerprintsGolden pins the fingerprint of every Table 1
// assay. The fingerprint is the compile cache's key, so its bytes may
// only change together with fingerprintVersion: -update refuses to
// record new hashes under the version line already on file.
func TestTable1FingerprintsGolden(t *testing.T) {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", dag.FingerprintVersion)
	for _, a := range assays.Table1Benchmarks(assays.DefaultTiming()) {
		fp, err := a.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", fp, a.Name)
	}
	got := b.String()
	path := filepath.Join("testdata", "table1_fingerprints.golden")
	want, err := os.ReadFile(path)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("%v (run `go test ./internal/dag -run TestTable1FingerprintsGolden -update` to create)", err)
	}
	if string(want) == got {
		return
	}
	sameVersion := strings.SplitN(string(want), "\n", 2)[0] == strings.SplitN(got, "\n", 2)[0]
	switch {
	case *update && sameVersion && len(want) > 0:
		t.Fatalf("fingerprints changed under %s: bump fingerprintVersion before updating %s", dag.FingerprintVersion, path)
	case *update:
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	default:
		t.Errorf("Table 1 fingerprints differ from %s (a changed encoding needs a fingerprintVersion bump, then -update):\n--- want\n%s--- got\n%s", path, want, got)
	}
}
