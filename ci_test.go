package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// plainScalar matches a `name:` or one-line `run:` key of a workflow step
// with its value.
var plainScalar = regexp.MustCompile(`^\s*(?:-\s+)?(name|run):\s+(.*)$`)

// TestWorkflowScalarsParse guards the CI workflows against the mistake that
// once kept every job from running: a plain (unquoted) YAML scalar holding
// ": " or " #" — a step name like `race (trace store: 16 writers)` — which
// YAML rejects as a mapping value or truncates as a comment, failing the
// whole file. Such a value must be quoted. No YAML parser needed: it reads
// the lines.
func TestWorkflowScalarsParse(t *testing.T) {
	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no workflow files found")
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			m := plainScalar.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			v := m[2]
			if v == "" || strings.ContainsAny(v[:1], `"'|>`) {
				continue // quoted, or a block scalar whose lines are not keys
			}
			if strings.Contains(v, ": ") || strings.Contains(v, " #") {
				t.Errorf("%s:%d: plain %s: value holds %q or %q; quote it: %s", f, i+1, m[1], ": ", " #", v)
			}
		}
	}
}

// fuzzRun matches one `go test <pkg> ... -fuzz '^Target$'` line of the
// Makefile (where `$` is written `$$`) or of a workflow.
var fuzzRun = regexp.MustCompile(`test\s+(\./\S+)\s.*-fuzz\s+'\^(\w+)\$`)

// fuzzBlock returns the `pkg Target` pairs fuzzed in the block of file that
// starts at the first line containing start and ends at the next blank line
// (the end of a Makefile recipe) or the next workflow step's `name:`.
func fuzzBlock(t *testing.T, file, start string) []string {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	lines := strings.Split(string(b), "\n")
	for i, line := range lines {
		if !strings.Contains(line, start) {
			continue
		}
		for _, l := range lines[i+1:] {
			if strings.TrimSpace(l) == "" || strings.Contains(l, "name:") {
				break
			}
			if m := fuzzRun.FindStringSubmatch(l); m != nil {
				out = append(out, m[1]+" "+m[2])
			}
		}
		break
	}
	if len(out) == 0 {
		t.Fatalf("%s: no fuzz targets found after %q", file, start)
	}
	return out
}

// TestCIFuzzesWhatMakeFuzzes keeps the CI fuzz-smoke step and `make fuzz`
// running the same targets: a fuzzer that only `make fuzz` runs is one no
// change is ever checked against.
func TestCIFuzzesWhatMakeFuzzes(t *testing.T) {
	mk := fuzzBlock(t, "Makefile", "fuzz:")
	ci := fuzzBlock(t, ".github/workflows/ci.yml", "fuzz smoke")
	if strings.Join(mk, "\n") != strings.Join(ci, "\n") {
		t.Errorf("make fuzz runs\n\t%s\nbut the CI fuzz step runs\n\t%s", strings.Join(mk, "\n\t"), strings.Join(ci, "\n\t"))
	}
}
