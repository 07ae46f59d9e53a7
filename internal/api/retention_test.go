package api

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"ibvsim/internal/cloud"
	"ibvsim/internal/routing"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// TestFlapRetention is the byte gate on what a link flap leaves behind. One
// half of a flap (fail or heal: sweep, POST /v1/reconfigure with its
// transition check and fast audit, then a full audit) emits 14 spans and 5
// events; as Go values they retained 4.4 KB, and since the rings do not fill
// inside a benchmark window that was heap growing linearly with how many
// flaps a run completed — a faster flap loop read as a fatter process.
// Sealed records must hold it under 1.5 KB, measured on the live heap.
func TestFlapRetention(t *testing.T) {
	topo, err := topology.BuildPaperFatTree(324)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := routing.New("minhop")
	if err != nil {
		t.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model: sriov.VSwitchPrepopulated, VFsPerHypervisor: 2, Engine: eng, RouteWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.SM.IncrementalRouting = true
	srv := NewServer(c, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Shutdown(context.Background()) //nolint:errcheck
	}()
	cl := ts.Client()

	a, _, ap := trunkLink(t, topo)
	up := true
	half := func() {
		t.Helper()
		up = !up
		if err := topo.SetLinkState(a, ap, up); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SM.LightSweep(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SM.Resweep(); err != nil {
			t.Fatal(err)
		}
		if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconfigure", nil, nil); st != http.StatusOK {
			t.Fatalf("reconfigure with link up=%v: status %d", up, st)
		}
		var aud struct {
			Last struct {
				Total int `json:"total"`
			} `json:"last"`
		}
		if st := doJSON(t, cl, "GET", ts.URL+"/v1/audit?run=full", nil, &aud); st != http.StatusOK || aud.Last.Total != 0 {
			t.Fatalf("full audit after link up=%v: status %d, %d violations", up, st, aud.Last.Total)
		}
	}
	live := func() (heap uint64, trace int, spans int) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		st := srv.tr.Stats()
		return ms.HeapAlloc, st.RetainedBytes, srv.tr.LastSpanID()
	}

	// Warm up until everything with a fixed size has reached it: the flight
	// recorder's 512-entry ring takes ~6 entries per half.
	for i := 0; i < 100; i++ {
		half()
	}
	heap0, trace0, spans0 := live()
	const halves = 100
	for i := 0; i < halves; i++ {
		half()
	}
	heap1, trace1, spans1 := live()
	perHalf := (float64(heap1) - float64(heap0)) / halves
	t.Logf("per flap half: %.0f B of live heap, %d B of it trace records, %d spans",
		perHalf, (trace1-trace0)/halves, (spans1-spans0)/halves)
	if perHalf > 1536 {
		t.Errorf("a flap half retains %.0f B, budget 1536 (the Go-value spans and events it replaced: ~4400)", perHalf)
	}
}
