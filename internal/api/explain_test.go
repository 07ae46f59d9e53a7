package api

import (
	"net/http"
	"testing"

	"ibvsim/internal/sriov"
)

// TestExplainReportsEvictedSpans: a provenance stamp outlives the span it
// names once the span ring wraps. ?format=trace must then say which spans it
// could not splice instead of silently returning fewer.
func TestExplainReportsEvictedSpans(t *testing.T) {
	srv, ts := newTestServer(t, 6, 2, 2, sriov.VSwitchDynamic, Config{})
	cl := ts.Client()
	hyps := srv.Snapshot().Hyps()
	a, b, c := hyps[0].Node, hyps[2].Node, hyps[4].Node
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: "peer", Hypervisor: &a}, nil); st != http.StatusCreated {
		t.Fatalf("create peer: status %d", st)
	}
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: "moved", Hypervisor: &b}, nil); st != http.StatusCreated {
		t.Fatalf("create moved: status %d", st)
	}
	var mig MigrateResponse
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms/moved/migrate", MigrateVMRequest{Destination: c}, &mig); st != http.StatusOK {
		t.Fatalf("migrate: status %d", st)
	}
	span := mig.Cost.TraceSpan

	explain := func() ExplainResponse {
		t.Helper()
		var resp ExplainResponse
		if st := doJSON(t, cl, "GET", ts.URL+"/v1/explain?src=peer&dst=moved&format=trace", nil, &resp); st != http.StatusOK {
			t.Fatalf("explain: status %d", st)
		}
		return resp
	}
	before := explain()
	if len(before.Spans) != 1 || before.Spans[0].ID != span || len(before.SpansEvicted) != 0 {
		t.Fatalf("with the span retained: spans %+v, evicted %v; want the migration span %d", before.Spans, before.SpansEvicted, span)
	}

	// Shrink the ring below what has been emitted: the migration's span goes.
	srv.tr.SetSpanCap(2)
	after := explain()
	if len(after.Spans) != 0 || len(after.SpansEvicted) != 1 || after.SpansEvicted[0] != span {
		t.Fatalf("with the span evicted: spans %+v, evicted %v; want evicted [%d]", after.Spans, after.SpansEvicted, span)
	}
	if after.Attributed != before.Attributed || after.Unknown != before.Unknown {
		t.Errorf("eviction changed the attribution itself: %+v -> %+v", before, after)
	}
}
