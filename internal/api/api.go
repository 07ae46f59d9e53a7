// Package api is the control-plane daemon around a vSwitch cloud: an HTTP
// surface over the orchestrator + subnet manager pair that cmd/ibsimd
// serves and cmd/ibsimload drives.
//
// The cloud and SM are single-threaded by design (the SM's operations
// mirror OpenSM's serial master thread), so every mutation runs on an actor
// that owns what it touches: a shard.Coordinator with one actor per zone of
// the fabric — one zone, the whole fabric, unless Config.Shards asks for
// more. A lifecycle command waits in its zone's bounded admission queue; a
// full queue is backpressure, reported as HTTP 429 with a Retry-After header
// rather than an unbounded goroutine pile-up. Fabric-wide commands
// (reconfigure, reconcile) and full audits run under the coordinator's
// freeze.
//
// Reads never touch the cloud. Every mutation publishes an immutable
// Snapshot before its client hears back (it captures the SM's published
// forwarding tables by pointer, so generations share every table no mutation
// touched), and the read endpoints — topology, VM listings, path walks —
// serve from whatever snapshot is current. Telemetry endpoints (/metrics,
// /v1/trace, /v1/events) read the registry and tracer directly; both are
// safe for concurrent use.
//
// Every mutation response carries a cost report in the paper's terms: n'
// switches updated, m' SMPs per switch (section VI), host SMPs, and the
// modelled reconfiguration time, cross-referenced to the telemetry span
// tree by root span ID so a client can audit the report against /v1/trace.
// Every finished command reaches its client through one epilogue (finish):
// publish, flight record, log, audit what the command says it touched.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ibvsim/internal/audit"
	"ibvsim/internal/cdg"
	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/shard"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// Config parameterises a Server.
type Config struct {
	// QueueDepth bounds each zone's admission queue (commands accepted but
	// not yet executed). 0 means DefaultQueueDepth.
	QueueDepth int
	// AuditInterval is the cadence of full-scope background audits
	// (reachability + hygiene + installed-routing CDG). 0 disables the
	// cadence; the cheap post-mutation audit always runs.
	AuditInterval time.Duration
	// FlightDir, when set, is where the flight recorder writes violation
	// dumps as JSON files (created on first dump). Dumps are always kept
	// in memory and served at /v1/flightrecorder regardless.
	FlightDir string
	// Logger receives structured request/mutation/audit logs. nil means
	// discard.
	Logger *slog.Logger
	// Shards is the number of zones, one actor each (see internal/shard): 0
	// or 1 is one zone owning the whole fabric, ShardsAuto one zone per pod
	// (or leaf group on 2-level fabrics), any larger count folds the pods
	// into that many zones.
	Shards int
}

// ShardsAuto asks Config.Shards for one shard per derived fat-tree zone.
const ShardsAuto = -1

// DefaultQueueDepth is the admission-queue bound when Config leaves it 0.
const DefaultQueueDepth = 64

// RetryAfter is the hint returned with 429 responses.
const RetryAfter = time.Second

// Server owns a cloud behind the zone actors of a shard.Coordinator and
// exposes it over HTTP. Construct with NewServer; the actors start
// immediately. Use Handler for the mux and Shutdown to drain and stop.
type Server struct {
	c   *cloud.Cloud
	co  *shard.Coordinator
	reg *telemetry.Registry
	tr  *telemetry.Tracer

	mux *http.ServeMux

	// snap is the snapshot reads serve; compose, its only writer, holds
	// pubMu.
	snap  atomic.Pointer[Snapshot]
	pubMu sync.Mutex

	// opCtx is cancelled when a Shutdown deadline expires, aborting any
	// in-flight LFT distribution (the context threads down to the sm
	// worker pool) and terminating event streams.
	opCtx    context.Context
	opCancel context.CancelFunc

	// Observability: auditor + flight recorder (tentpole of the health
	// monitoring layer), structured logger, request-ID allocator.
	aud       *audit.Auditor
	rec       *audit.Recorder
	log       *slog.Logger
	reqSeq    atomic.Int64
	auditStop chan struct{} // nil when no cadence goroutine is running
	auditDone chan struct{}
	stopAudit sync.Once

	// lastPlan is the last reconcile plan computed, for the next command
	// of the same spec and state to run rather than plan again.
	lastPlan planSlot

	// fabric and switches describe the topology, which never changes under a
	// server: its name, and its switches in ascending node order.
	fabric   string
	switches []topology.NodeID
}

// NewServer wraps a freshly bootstrapped cloud. The server takes exclusive
// ownership: the caller must not call cloud methods directly afterwards.
// An invalid zone setup (e.g. no hypervisors) panics, as it would have
// failed cloud bootstrap anyway.
func NewServer(c *cloud.Cloud, cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	hub := c.SM.Telemetry()
	s := &Server{
		c:        c,
		reg:      hub.Registry(),
		tr:       hub.Tracer(),
		mux:      http.NewServeMux(),
		log:      cfg.Logger,
		fabric:   c.SM.Topo.String(),
		switches: c.SM.Topo.Switches(),
	}
	s.rec = audit.NewRecorder(hub.Tracer(), cfg.FlightDir, audit.DefaultRecorderCap)
	s.aud = audit.New(hub, s.rec, audit.Config{})
	s.WireTransitionMonitor()
	s.opCtx, s.opCancel = context.WithCancel(context.Background())
	s.routes()
	co, err := shard.New(c, cfg.Shards, shard.Config{
		QueueDepth:    cfg.QueueDepth,
		AfterMutation: s.shardDone,
		Published:     s.published,
	})
	if err != nil {
		panic(fmt.Sprintf("api: control plane: %v", err))
	}
	s.co = co
	s.compose()
	if cfg.AuditInterval > 0 {
		s.auditStop = make(chan struct{})
		s.auditDone = make(chan struct{})
		go s.auditLoop(cfg.AuditInterval)
	}
	return s
}

// WireTransitionMonitor installs the transient-deadlock monitor (section
// VI-C live) on the cloud's current subnet manager: the SM calls the hook
// on the actor goroutine the moment a distribution starts mixing Rold and
// Rnew, so reading SM state inside it is race free. NewServer wires the
// bootstrap SM; after an SM handover swaps a freshly adopted manager into
// the cloud, the orchestrating code (the scenario harness) must call this
// again — while no mutation is in flight — so the new SM's distributions
// stay monitored.
func (s *Server) WireTransitionMonitor() {
	s.c.SM.OnDistribute = func(old, next cdg.Routes) {
		dlids := make([]ib.LID, 0, 64)
		for _, tg := range s.c.SM.Targets() {
			dlids = append(dlids, tg.LID)
		}
		rep := s.aud.Transition(s.c.SM.Topo, old, next, dlids)
		if rep.Total > 0 {
			s.log.Warn("transient CDG violation during LFT distribution",
				"violations", rep.Total)
		}
	}
}

// Handler returns the HTTP handler serving the full API surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Snapshot returns the current fabric snapshot (never nil): the one the last
// finished command published before its reply.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Coordinator exposes the zone coordinator for tests and embedding drivers
// (ibsimload's in-process mode, the chaos engine's commit-gate hook).
func (s *Server) Coordinator() *shard.Coordinator { return s.co }

func (s *Server) routes() {
	s.handle("GET /healthz", "healthz", s.handleHealthz)
	s.handle("GET /metrics", "metrics", s.handleMetrics)
	s.handle("GET /v1/trace", "trace", s.handleTrace)
	s.handle("GET /v1/topology", "topology", s.handleTopology)
	s.handle("GET /v1/vms", "vms_list", s.handleListVMs)
	s.handle("GET /v1/vms/{name}", "vms_get", s.handleGetVM)
	s.handle("GET /v1/paths/{src}/{dst}", "paths", s.handlePath)
	s.handle("GET /v1/explain", "explain", s.handleExplain)
	s.handle("GET /v1/events", "events", s.handleEvents)
	s.handle("GET /v1/audit", "audit", s.handleAudit)
	s.handle("GET /v1/flightrecorder", "flightrecorder", s.handleFlightRecorder)
	s.handle("POST /v1/vms", "vms_create", s.handleCreateVM)
	s.handle("DELETE /v1/vms/{name}", "vms_destroy", s.handleDestroyVM)
	s.handle("POST /v1/vms/{name}/migrate", "vms_migrate", s.handleMigrateVM)
	s.handle("POST /v1/reconfigure", "reconfigure", s.handleReconfigure)
	s.handle("POST /v1/reconcile", "reconcile", s.handleReconcile)
}

// reqIDKey carries the per-request ID through the request context.
type reqIDKey struct{}

// requestID returns the ID assigned to the request by handle ("" outside
// the handler chain, e.g. in tests constructing bare requests).
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(reqIDKey{}).(string)
	return id
}

// handle registers a pattern with per-endpoint request counting, wall-clock
// latency histograms (api.latency.<op>_us) and request-ID assignment: an
// inbound X-Request-ID is honoured, otherwise one is allocated, and either
// way the ID is echoed on the response and threaded to the mutation log and
// the flight recorder.
func (s *Server) handle(pattern, op string, h http.HandlerFunc) {
	ctr := s.reg.Counter("api.requests." + op)
	hist := s.reg.WallHistogram("api.latency."+op+"_us", nil)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", reqID)
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, reqID))
		h(w, r)
		ctr.Inc()
		hist.ObserveDuration(time.Since(start))
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// --- read endpoints -------------------------------------------------------

// traceStats reads the tracer's own account of what it retains and what it
// has evicted, and refreshes the trace.* gauges from it: loss of trace is
// reported, never silent.
func (s *Server) traceStats() telemetry.TraceStats {
	st := s.tr.Stats()
	s.reg.Gauge("trace.retained_bytes").Set(int64(st.RetainedBytes))
	s.reg.Gauge("trace.retained_spans").Set(int64(st.RetainedSpans))
	s.reg.Gauge("trace.spans_evicted_total").Set(st.SpansEvicted)
	s.reg.Gauge("trace.events_evicted_total").Set(st.EventsEvicted)
	return st
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.traceStats()
	trace := map[string]int64{
		"retained_bytes":       int64(st.RetainedBytes),
		"retained_spans":       int64(st.RetainedSpans),
		"spans_evicted_total":  st.SpansEvicted,
		"events_evicted_total": st.EventsEvicted,
	}
	sn := s.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"generation": sn.Gen,
		"queue":      s.co.QueueLen(),
		"vms":        sn.NumVMs(),
		"shards":     s.co.Shards(),
		"trace":      trace,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.traceStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w) //nolint:errcheck
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	opts := telemetry.Options{IncludeWall: true, IncludeEvents: true}
	switch r.URL.Query().Get("format") {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		s.tr.WriteJSON(w, opts) //nolint:errcheck
	case "chrome":
		// Trace Event Format: load the body straight into Perfetto.
		w.Header().Set("Content-Type", "application/json")
		s.tr.WriteChromeTrace(w, opts) //nolint:errcheck
	default:
		writeErr(w, http.StatusBadRequest, "unknown trace format %q (want json or chrome)", r.URL.Query().Get("format"))
	}
}

// TopologyResponse describes the fabric being served, with one ShardStats
// entry per zone.
type TopologyResponse struct {
	Fabric      string          `json:"fabric"`
	Switches    int             `json:"switches"`
	CAs         int             `json:"cas"`
	Model       string          `json:"model"`
	SMNode      topology.NodeID `json:"sm_node"`
	Generation  uint64          `json:"generation"`
	Shards      int             `json:"shards"`
	ShardStats  []shard.Stats   `json:"shard_stats"`
	Hypervisors []HypInfo       `json:"hypervisors"`
}

func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	sn := s.Snapshot()
	writeJSON(w, http.StatusOK, TopologyResponse{
		Fabric:      sn.Fabric,
		Switches:    sn.topo.NumSwitches(),
		CAs:         sn.topo.NumCAs(),
		Model:       sn.Model,
		SMNode:      sn.SMNode,
		Generation:  sn.Gen,
		Shards:      s.co.Shards(),
		ShardStats:  s.co.Stats(),
		Hypervisors: sn.Hyps(),
	})
}

func (s *Server) handleListVMs(w http.ResponseWriter, r *http.Request) {
	sn := s.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": sn.Gen,
		"vms":        sn.VMs(),
	})
}

func (s *Server) handleGetVM(w http.ResponseWriter, r *http.Request) {
	sn := s.Snapshot()
	name := r.PathValue("name")
	if vm := sn.vm(name); vm != nil {
		writeJSON(w, http.StatusOK, vmInfo(sn.topo, vm))
		return
	}
	writeErr(w, http.StatusNotFound, "no VM %q", name)
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	sn := s.Snapshot()
	resp, err := sn.Path(r.PathValue("src"), r.PathValue("dst"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- mutation endpoints ---------------------------------------------------

// CreateVMRequest is the body of POST /v1/vms. Hypervisor pins placement;
// leaving it out delegates to the cloud's scheduler.
type CreateVMRequest struct {
	Name       string           `json:"name"`
	Hypervisor *topology.NodeID `json:"hypervisor,omitempty"`
}

// maxBodyBytes caps a request body.
const maxBodyBytes = 1 << 20

// decodeBody reads r's body as exactly one JSON value into v: at most
// maxBodyBytes (413 beyond that), no field v lacks and nothing after the
// value (400). On failure it has answered the client and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	trailing := err == nil
	if trailing {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
	}
	status := http.StatusBadRequest
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		status = http.StatusRequestEntityTooLarge
	case trailing:
		err = errors.New("data after the JSON value")
	}
	writeErr(w, status, "bad request body: %v", err)
	return false
}

func (s *Server) handleCreateVM(w http.ResponseWriter, r *http.Request) {
	var req CreateVMRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeErr(w, http.StatusBadRequest, "missing VM name")
		return
	}
	cmd := &command{kind: opCreateVM, name: req.Name, hyp: topology.NoNode}
	if req.Hypervisor != nil {
		cmd.hyp = *req.Hypervisor
	}
	s.dispatch(w, r, cmd)
}

func (s *Server) handleDestroyVM(w http.ResponseWriter, r *http.Request) {
	s.dispatch(w, r, &command{kind: opDestroyVM, name: r.PathValue("name")})
}

// MigrateVMRequest is the body of POST /v1/vms/{name}/migrate.
type MigrateVMRequest struct {
	Destination topology.NodeID `json:"destination"`
}

func (s *Server) handleMigrateVM(w http.ResponseWriter, r *http.Request) {
	var req struct { // MigrateVMRequest, with a missing destination told from node 0
		Destination *topology.NodeID `json:"destination"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Destination == nil {
		writeErr(w, http.StatusBadRequest, "missing destination")
		return
	}
	s.dispatch(w, r, &command{kind: opMigrateVM, name: r.PathValue("name"), hyp: *req.Destination})
}

func (s *Server) handleReconfigure(w http.ResponseWriter, r *http.Request) {
	s.dispatch(w, r, &command{kind: opReconfigure})
}

// Shutdown stops intake (new mutations get 503), lets admitted commands
// finish and waits for the zone actors to exit. If ctx expires first, the
// in-flight operation's context is cancelled — aborting any LFT distribution
// mid-flight — and Shutdown still waits for the now fast-failing drain, then
// returns ctx's error. A second call returns nil once the first has drained.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopAudit.Do(func() {
		if s.auditStop != nil {
			close(s.auditStop)
		}
	})
	err := s.co.Shutdown(ctx)
	if err != nil {
		s.opCancel()
		s.co.Shutdown(context.Background()) //nolint:errcheck // cannot expire
	}
	if s.auditDone != nil {
		<-s.auditDone
	}
	s.opCancel()
	return err
}
