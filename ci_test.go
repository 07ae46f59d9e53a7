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
