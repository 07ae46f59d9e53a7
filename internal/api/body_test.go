package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ibvsim/internal/cloud"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// bodyServer boots a small ring fabric with one VM, "vm", on the first
// hypervisor, and returns the server and its hypervisors.
func bodyServer(tb testing.TB) (*Server, []topology.NodeID) {
	tb.Helper()
	topo, err := topology.BuildRing(4, 2)
	if err != nil {
		tb.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{Model: sriov.VSwitchPrepopulated, VFsPerHypervisor: 2, RouteWorkers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.CreateVMOn("vm", c.Hypervisors()[0]); err != nil {
		tb.Fatal(err)
	}
	srv := NewServer(c, Config{})
	tb.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
	return srv, c.Hypervisors()
}

// postRaw sends body, byte for byte, through the handler.
func postRaw(srv *Server, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return w
}

// isJSONError reports whether an answer's body is a JSON object with an
// error message.
func isJSONError(w *httptest.ResponseRecorder) bool {
	var e struct {
		Error string `json:"error"`
	}
	return json.Unmarshal(w.Body.Bytes(), &e) == nil && e.Error != ""
}

// TestRequestBodiesReadStrictly: a mutation's body is one JSON value of the
// request type, nothing more — no unknown field, no trailing data, no
// missing destination read as node 0 — and at most 1 MiB.
func TestRequestBodiesReadStrictly(t *testing.T) {
	srv, hyps := bodyServer(t)
	huge := `{"name":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/v1/vms", `{"name":"a"} trailing garbage`, http.StatusBadRequest},
		{"/v1/vms", `{"name":"a"}{"name":"b"}`, http.StatusBadRequest},
		{"/v1/vms", `{"name":"a","hypervisr":2}`, http.StatusBadRequest},
		{"/v1/vms", huge, http.StatusRequestEntityTooLarge},
		{"/v1/vms/vm/migrate", `{}`, http.StatusBadRequest},
		{"/v1/vms/vm/migrate", `{"destinaton":5}`, http.StatusBadRequest},
		{"/v1/vms/vm/migrate", fmt.Sprintf(`{"destination":%d} {"destination":%d}`, hyps[1], hyps[2]), http.StatusBadRequest},
		{"/v1/reconcile", `{"goal":"defrag","dry_run":true,"extra":1}`, http.StatusBadRequest},
		{"/v1/reconcile", `{"goal":"defrag","dry_run":true} x`, http.StatusBadRequest},
		// What a well-formed body still does, trailing white space allowed.
		{"/v1/vms", fmt.Sprintf("{\"name\":\"b\",\"hypervisor\":%d}\n", hyps[1]), http.StatusCreated},
		{"/v1/vms/vm/migrate", fmt.Sprintf(`{"destination":%d} `, hyps[2]), http.StatusOK},
		{"/v1/reconcile", `{"goal":"defrag","dry_run":true}`, http.StatusOK},
	} {
		w := postRaw(srv, c.path, c.body)
		if w.Code != c.want || w.Code >= 300 && !isJSONError(w) {
			t.Errorf("POST %s %.60q: %d %.200s, want %d", c.path, c.body, w.Code, w.Body.String(), c.want)
		}
	}
	if vm := srv.c.VM("a"); vm != nil {
		t.Errorf("a refused create made VM %+v", vm)
	}
}

// FuzzRequestBodies posts fuzzer-chosen bodies to the three endpoints that
// decode one: the server must not panic, and every answer that is not a
// success must be a 4xx with a JSON error.
func FuzzRequestBodies(f *testing.F) {
	f.Add(byte(0), []byte(`{"name":"x","hypervisor":2}`))
	f.Add(byte(0), []byte(`{"name":"a"} trailing garbage`))
	f.Add(byte(1), []byte(`{"destination":3}`))
	f.Add(byte(1), []byte(`{}`))
	f.Add(byte(2), []byte(`{"goal":"defrag","dry_run":true}`))
	f.Add(byte(2), []byte(`{"placement":{"vm":2}}`))
	srv, _ := bodyServer(f)
	paths := []string{"/v1/vms", "/v1/vms/vm/migrate", "/v1/reconcile"}
	f.Fuzz(func(t *testing.T, endpoint byte, body []byte) {
		path := paths[int(endpoint)%len(paths)]
		w := postRaw(srv, path, string(body))
		if w.Code >= 300 && (w.Code >= 500 || w.Code < 400 || !isJSONError(w)) {
			t.Fatalf("POST %s %q: %d %s", path, body, w.Code, w.Body.String())
		}
	})
}
