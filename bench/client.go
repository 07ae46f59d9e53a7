package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"ibvsim/internal/api"
	"ibvsim/internal/core"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// handlerTransport serves each request by calling the handler inline on the
// caller's goroutine: no listener, no socket, and the latency the client
// observes is the handler's own.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// baseURL is never resolved: the transport ignores the host.
const baseURL = "http://ibvbench.embedded"

// client is one closed-loop caller. It is owned by one goroutine.
type client struct {
	hc      http.Client
	rejects int // 429s honoured through Retry-After
	// parked are this client's reads-after-write that have not shown their
	// write yet; each must show it after the client's next mutation.
	parked []pendingRead
}

func newClient(h http.Handler) *client {
	return &client{hc: http.Client{Transport: handlerTransport{h}}}
}

// send issues one request and returns the status and body of the final
// attempt. A 429 is honoured: wait Retry-After, send again. The returned
// duration is the last attempt's, so an honoured reject does not pose as
// service time.
func (c *client) send(method, path string, body any) (int, []byte, time.Duration, error) {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return 0, nil, 0, err
		}
	}
	for {
		req, err := http.NewRequest(method, baseURL+path, bytes.NewReader(payload))
		if err != nil {
			return 0, nil, 0, err
		}
		start := time.Now()
		resp, err := c.hc.Do(req)
		if err != nil {
			return 0, nil, 0, err
		}
		data, err := io.ReadAll(resp.Body)
		took := time.Since(start)
		resp.Body.Close()
		if err != nil {
			return resp.StatusCode, nil, took, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			c.rejects++
			secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			time.Sleep(time.Duration(secs) * time.Second)
			continue
		}
		return resp.StatusCode, data, took, nil
	}
}

// do is send for calls that must succeed: any non-2xx reply is an error, and
// a 2xx JSON body is decoded into out (when non-nil).
func (c *client) do(method, path string, body, out any) (time.Duration, error) {
	status, data, took, err := c.send(method, path, body)
	if err != nil {
		return took, err
	}
	if status/100 != 2 {
		return took, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return took, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return took, nil
}

// tally counts operations attempted and failed. A failure is a non-2xx
// reply, a failed correctness check or an audit violation.
type tally struct {
	attempted int
	failed    int
	msgs      []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.msgs) < 20 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.msgs = append(t.msgs, o.msgs...)
}

// maxSMPs is the paper's worst case for one migration: two blocks per
// switch for a LID swap, one for a LID copy (Table I).
func maxSMPs(model sriov.Model, switches int) int {
	if model == sriov.VSwitchDynamic {
		return core.MaxCopySMPs(switches)
	}
	return core.MaxSwapSMPs(switches)
}

// maxStaleReads bounds how often a read-after-write is repeated on the
// spot. A read still stale after that is parked and must show the write
// once the control plane has moved on by one more mutation: the sharded
// plane can cache a snapshot composed mid-mutation under the generation it
// is about to publish, and serves it until the generation moves again. With
// both clients spinning on such a snapshot nobody moves it, hence the bound.
const maxStaleReads = 10

// pendingRead is a read-after-write that has not shown its write yet.
type pendingRead struct {
	vm   string
	path string
	want topology.NodeID
}

// lifecycleResult is what one op and its read-after-write took. read spans
// the whole read phase: if the first read does not show the change yet
// (stale counts those), the caller keeps asking, as a real one would.
type lifecycleResult struct {
	write, read time.Duration
	smps        int
	stale       int
	ok          bool
}

// showsWrite issues the read and reports whether it ends at want.
func showsWrite(cl *client, path string, want topology.NodeID) (bool, error) {
	status, data, _, err := cl.send("GET", path, nil)
	if err != nil {
		return false, err
	}
	// A read that does not show the write yet answers 404 (the walk ends at
	// the old host) or 200 with the old host.
	var resp api.PathResponse
	return status == http.StatusOK && json.Unmarshal(data, &resp) == nil &&
		resp.DstNode == want && len(resp.Hops) > 0, nil
}

// lifecycle issues one generated op, then the read-after-write that a
// caller waiting for its change to be visible would issue: the path from
// the fixed peer to the VM must end at the hypervisor the op named (for a
// destroy, the path to the vacated hypervisor must still resolve).
func lifecycle(e *env, cl *client, p *plan, o op, t *tally) lifecycleResult {
	var r lifecycleResult
	t.attempted++
	var err error
	target := o.VM
	switch o.Kind {
	case opMigrate:
		var resp api.MigrateResponse
		r.write, err = cl.do("POST", "/v1/vms/"+o.VM+"/migrate", api.MigrateVMRequest{Destination: o.Hyp}, &resp)
		if err == nil {
			r.smps = resp.Cost.LFTSMPs
			if resp.To != o.Hyp {
				err = fmt.Errorf("migrate %s: landed on %d, want %d", o.VM, resp.To, o.Hyp)
			} else if max := maxSMPs(e.w.Model, p.Switches); r.smps > max {
				err = fmt.Errorf("migrate %s: %d LFT SMPs exceed the bound %d", o.VM, r.smps, max)
			}
		}
	case opCreate:
		hyp := o.Hyp
		var resp api.VMResponse
		r.write, err = cl.do("POST", "/v1/vms", api.CreateVMRequest{Name: o.VM, Hypervisor: &hyp}, &resp)
		if err == nil && resp.Node != o.Hyp {
			err = fmt.Errorf("create %s: placed on %d, want %d", o.VM, resp.Node, o.Hyp)
		}
	case opDestroy:
		r.write, err = cl.do("DELETE", "/v1/vms/"+o.VM, nil, nil)
		target = strconv.Itoa(int(o.Hyp))
	}
	if err != nil {
		t.fail("%v", err)
		return r
	}
	readPath := "/v1/paths/" + strconv.Itoa(int(p.Peer)) + "/" + target
	// This op's write has moved the generation: reads parked by earlier ops
	// are due (unless this op moved the same VM on, which supersedes them).
	due := cl.parked
	cl.parked = nil
	readStart := time.Now()
	for ; r.stale < maxStaleReads && !r.ok; r.stale++ {
		shown, err := showsWrite(cl, readPath, o.Hyp)
		if err != nil {
			t.fail("read after %s: %v", o.VM, err)
			return r
		}
		if shown {
			r.read = time.Since(readStart)
			r.ok = true
			r.stale-- // the read that showed the write was not stale
		}
	}
	if !r.ok {
		cl.parked = append(cl.parked, pendingRead{o.VM, readPath, o.Hyp})
	}
	for _, pr := range due {
		if pr.vm != o.VM {
			cl.verify(pr, t)
		}
	}
	return r
}

// verify re-issues a parked read, which by now must show its write.
func (c *client) verify(pr pendingRead, t *tally) {
	if shown, err := showsWrite(c, pr.path, pr.want); err != nil || !shown {
		_, body, _, _ := c.send("GET", pr.path, nil)
		t.fail("read %s: write still not visible at node %d after the next mutation (%v): %s",
			pr.path, pr.want, err, bytes.Join(bytes.Fields(body), []byte(" ")))
	}
}

// settle closes the books on reads still parked when the clients stopped:
// one more mutation (a scratch VM created and destroyed on the hypervisor no
// client owns) moves the control plane to a new generation, after which
// every parked read must show its write. What is still stale then never
// became visible: a failure.
func settle(cl *client, p *plan, parked []pendingRead, t *tally) {
	hyp := p.Flush
	t.attempted++
	if _, err := cl.do("POST", "/v1/vms", api.CreateVMRequest{Name: "ibvbench-flush", Hypervisor: &hyp}, nil); err != nil {
		t.fail("flush: %v", err)
	} else if _, err := cl.do("DELETE", "/v1/vms/ibvbench-flush", nil, nil); err != nil {
		t.fail("flush: %v", err)
	}
	for _, pr := range parked {
		cl.verify(pr, t)
	}
}

// auditResponse is the part of GET /v1/audit the benchmark reads.
type auditResponse struct {
	ViolationsTotal int64 `json:"violations_total"`
}

// fullAudit runs a synchronous full-scope audit through the API. The
// violation counter is cumulative, so one clean reading at the end of a run
// also clears every post-mutation audit before it.
func fullAudit(cl *client, t *tally) time.Duration {
	t.attempted++
	var a auditResponse
	took, err := cl.do("GET", "/v1/audit?run=full", nil, &a)
	switch {
	case err != nil:
		t.fail("%v", err)
	case a.ViolationsTotal != 0:
		t.fail("full audit: %d violations", a.ViolationsTotal)
	}
	return took
}

// setLink changes a link's state the way the fabric would report it: the
// port flips, the SM's light sweep notices, the resweep rediscovers. Only
// valid while no API command is in flight (the flap client is the only one).
func setLink(e *env, l link, up bool) error {
	if err := e.topo.SetLinkState(l.A, l.Port, up); err != nil {
		return err
	}
	if _, err := e.c.SM.LightSweep(); err != nil {
		return err
	}
	_, err := e.c.SM.Resweep()
	return err
}
