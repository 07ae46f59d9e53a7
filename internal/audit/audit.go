// Package audit is the fabric health auditor: a continuously runnable
// checker that verifies the subnet manager's view of the fabric against
// three invariant families.
//
//   - Reachability: every active LID (a VF with a VM, a PF, a switch) is
//     reachable from every other endpoint via hop-by-hop LFT walks, with no
//     forwarding loops, black holes or misdeliveries.
//   - LID hygiene: forwarding entries, the LID address map and the VM
//     bindings agree — no forwarding entry points at a LID nobody owns, and
//     no VM's LID resolves to a node other than its hypervisor.
//   - Transient deadlock freedom: while an LFT distribution is in flight
//     the fabric holds an arbitrary mixture of the old and new routing
//     functions, so the union CDG Rold ∪ Rnew must be acyclic (the paper's
//     section VI-C hazard, run as a live monitor via Transition
//     instead of only the offline transition experiment).
//
// The auditor is passive and lock-free with respect to the fabric: it runs
// against immutable copy-on-write views (the control-plane daemon's
// snapshots), so it can run concurrently with mutations at any cadence.
// Results feed the telemetry registry (audit.runs, audit.violations.<kind>)
// and an audit span per pass; when a pass finds violations, the flight
// recorder captures the recent mutation/event window to a post-mortem dump.
package audit

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// Kind classifies one invariant violation.
type Kind string

// The violation vocabulary. Blackhole/loop/misroute come from LFT walks,
// stale_entry/lid_conflict from the hygiene pass, deadlock from the CDG of
// the installed routing, transient_cdg from the union CDG of an in-flight
// distribution (section VI-C).
const (
	KindBlackhole    Kind = "blackhole"
	KindLoop         Kind = "loop"
	KindMisroute     Kind = "misroute"
	KindStaleEntry   Kind = "stale_entry"
	KindLIDConflict  Kind = "lid_conflict"
	KindDeadlock     Kind = "deadlock"
	KindTransientCDG Kind = "transient_cdg"
)

// Violation is one detected invariant breach.
type Violation struct {
	Kind   Kind   `json:"kind"`
	LID    uint16 `json:"lid,omitempty"`
	Node   string `json:"node,omitempty"` // description of the node at fault
	Detail string `json:"detail"`
	// Provenance is the write stamp of the offending LFT block when the
	// violation pins a concrete forwarding entry: the mutation, span and
	// phase that installed the bad route. Flight-recorder dumps carry it, so
	// a post-mortem names the culprit operation instead of just the symptom.
	Provenance *ib.Provenance `json:"provenance,omitempty"`
}

// Scope selects how much one audit pass checks.
type Scope uint8

const (
	// ScopeFast runs reachability and hygiene — cheap enough to run inline
	// after every control-plane mutation.
	ScopeFast Scope = iota
	// ScopeFull adds the deadlock check (CDG of the installed routing),
	// which walks every (destination, switch) pair. Run on a cadence.
	ScopeFull
	// ScopeReach runs reachability and the VM-binding checks but skips the
	// stale-entry sweep (which walks every switch × every LID and needs a
	// complete LID map). It is the op-scoped pass sharded control planes
	// run after each mutation, with ActiveLIDs = just the LID columns the
	// op touched; fabric-wide hygiene runs at quiesce points instead.
	ScopeReach
)

// String implements fmt.Stringer.
func (s Scope) String() string {
	switch s {
	case ScopeFull:
		return "full"
	case ScopeReach:
		return "reach"
	}
	return "fast"
}

// Report is the outcome of one audit pass.
type Report struct {
	Gen             uint64         `json:"generation"`
	Scope           string         `json:"scope"`
	LIDsChecked     int            `json:"lids_checked"`
	SwitchesChecked int            `json:"switches_checked"`
	Total           int            `json:"total"`
	ByKind          map[string]int `json:"by_kind,omitempty"`
	// Violations carries at most Config.MaxViolations entries; Total is
	// always the true count and Truncated marks a capped list.
	Violations []Violation `json:"violations,omitempty"`
	Truncated  bool        `json:"truncated,omitempty"`
	WallUS     int64       `json:"wall_us"`
}

// Config parameterises an Auditor.
type Config struct {
	// MaxViolations caps the violation detail kept per report (the counts
	// stay exact). 0 means DefaultMaxViolations.
	MaxViolations int
}

// DefaultMaxViolations bounds per-report violation detail.
const DefaultMaxViolations = 256

// Auditor runs audit passes and keeps the most recent report. All methods
// are safe for concurrent use: passes run against immutable views, counters
// are atomic, and the last report sits behind a mutex.
type Auditor struct {
	reg *telemetry.Registry
	tr  *telemetry.Tracer
	rec *Recorder
	cfg Config

	runs  *telemetry.Counter
	total *telemetry.Counter

	mu   sync.Mutex
	last *Report
	idle []*scratch // walk scratch of finished passes, reused by the next

	// The installed routing's CDG, kept between passes: every transition
	// check and every full audit brings it up to date with the tables it
	// checks, at the cost of the (switch, LID) pairs that changed. cdgCold
	// says why the next pass must build it from nothing instead ("" when it
	// can be brought up to date).
	cdgMu    sync.Mutex
	cdgTopo  *topology.Topology
	cdgNodes int
	cdg      *cdg.Maintained
	cdgCold  string

	cdgWarm, cdgColdRuns *telemetry.Counter

	// The routing of the last fabric-wide pass, kept as the base of the
	// next one's reachability: a fast or full pass walks only the LID
	// columns that changed since, from the switches whose step changed, as
	// long as the base pass found every column clean and entered the
	// fabric at the same switches.
	reachMu      sync.Mutex
	reachTopo    *topology.Topology
	reachNodes   int
	reach        *cdg.Base
	reachClean   bool
	reachEntries []topology.NodeID

	reachWarm, reachColdRuns *telemetry.Counter
}

// New returns an auditor reporting into the hub's registry and tracer.
// rec may be nil (no flight recording); hub may be nil (no telemetry).
func New(hub *telemetry.Hub, rec *Recorder, cfg Config) *Auditor {
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = DefaultMaxViolations
	}
	a := &Auditor{
		reg: hub.Registry(),
		tr:  hub.Tracer(),
		rec: rec,
		cfg: cfg,
	}
	a.runs = a.reg.Counter("audit.runs")
	a.total = a.reg.Counter("audit.violations_total")
	a.cdgWarm = a.reg.Counter(telemetry.Labeled("audit.cdg_passes", "mode", "warm"))
	a.cdgColdRuns = a.reg.Counter(telemetry.Labeled("audit.cdg_passes", "mode", "cold"))
	a.reachWarm = a.reg.Counter(telemetry.Labeled("audit.reach_passes", "mode", "warm"))
	a.reachColdRuns = a.reg.Counter(telemetry.Labeled("audit.reach_passes", "mode", "cold"))
	return a
}

// Recorder returns the flight recorder the auditor dumps to (may be nil).
func (a *Auditor) Recorder() *Recorder { return a.rec }

// Last returns the most recent report, or nil if no pass has run.
func (a *Auditor) Last() *Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.last
}

// Runs returns the number of passes run so far.
func (a *Auditor) Runs() int64 { return a.runs.Value() }

// ViolationsTotal returns the cumulative violation count across all passes
// (including transition checks).
func (a *Auditor) ViolationsTotal() int64 { return a.total.Value() }

// Run audits one immutable fabric view and returns the report. Violations
// bump audit.violations.<kind> counters and trigger a flight-recorder dump.
func (a *Auditor) Run(v *View, scope Scope) *Report {
	start := time.Now()
	span := a.tr.Start(telemetry.SpanAudit, scope.String())
	var c collector
	c.max = a.cfg.MaxViolations

	s := a.acquire(v.Topo.NumNodes())
	if scope == ScopeReach {
		checkReachability(v, &c, s)
	} else {
		a.noteReach(span, a.checkReach(v, &c, s))
	}
	checkBindings(v, &c)
	if scope != ScopeReach {
		checkStaleEntries(v, &c, s)
	}
	a.release(s)
	if scope == ScopeFull {
		a.note(span, a.checkInstalledCDG(v, &c))
	}

	rep := &Report{
		Gen:             v.Gen,
		Scope:           scope.String(),
		LIDsChecked:     len(v.ActiveLIDs),
		SwitchesChecked: v.Topo.NumSwitches(),
		Total:           c.total,
		ByKind:          c.byKind,
		Violations:      c.kept,
		Truncated:       c.total > len(c.kept),
		WallUS:          time.Since(start).Microseconds(),
	}
	a.finish(span, rep)
	return rep
}

// acquire hands out walk scratch for a pass over n nodes: an idle one when
// there is one (passes may run concurrently, each needs its own), else new.
func (a *Auditor) acquire(n int) *scratch {
	a.mu.Lock()
	var s *scratch
	if k := len(a.idle); k > 0 {
		s, a.idle = a.idle[k-1], a.idle[:k-1]
	}
	a.mu.Unlock()
	if s == nil {
		s = &scratch{}
	}
	s.begin(n)
	return s
}

// release returns a pass's scratch for reuse.
func (a *Auditor) release(s *scratch) {
	s.end()
	a.mu.Lock()
	a.idle = append(a.idle, s)
	a.mu.Unlock()
}

// Why a pass built the installed routing's CDG from nothing (the span
// attribute cdg_reason): no graph yet, another topology or a rewired one, an
// installed routing that is cyclic (an Ordered cannot hold it), or a refused
// insert (the transition's union is cyclic). Why a fabric-wide pass walked
// every LID column (reach_reason): no base yet, another topology or a
// rewired one, a base pass that found a column dirty, or other entry
// switches.
const (
	coldFirst      = "first"
	coldTopology   = "topology"
	coldCyclic     = "cyclic"
	coldRefused    = "refused"
	coldViolations = "violations"
	coldEntries    = "entries"
)

// reachPass is how a fabric-wide pass checked reachability: warm when it
// walked only the columns that changed since the base, else cold, and why.
type reachPass struct {
	cold string
	walked
}

// checkReach is checkReachability for a fabric-wide pass: it moves the base
// to v's routing and walks the columns that can have changed since — every
// column when the base cannot vouch for the rest. The base is held for the
// whole walk, so that the next pass knows whether this one was clean.
func (a *Auditor) checkReach(v *View, c *collector, s *scratch) reachPass {
	s.entrySwitches(v)
	a.reachMu.Lock()
	defer a.reachMu.Unlock()
	p := reachPass{cold: a.rebase(v, s.entries)}
	only := a.reach
	if p.cold != "" {
		only = nil
	}
	before := c.total
	p.walked = walkColumns(v, c, s, only)
	a.reachClean = c.total == before
	a.reachEntries = append(a.reachEntries[:0], s.entries...)
	return p
}

// rebase moves the reachability base to v's routing of all its active
// LIDs, under reachMu, and says why the pass must walk every column ("" when
// only those the base's Update named).
func (a *Auditor) rebase(v *View, entries []topology.NodeID) (cold string) {
	t := v.Topo
	switch {
	case a.reachTopo == nil:
		cold = coldFirst
	case a.reachTopo != t || a.reachNodes != t.NumNodes():
		cold = coldTopology
	case !a.reachClean:
		cold = coldViolations
	case !slices.Equal(a.reachEntries, entries):
		cold = coldEntries
	default:
		if _, err := a.reach.Update(v, v.ActiveLIDs); err == nil {
			return ""
		}
		cold = coldTopology
	}
	if cold == coldViolations || cold == coldEntries {
		if a.reach.Load(v, v.ActiveLIDs) == nil {
			return cold
		}
		cold = coldTopology
	}
	a.reachTopo, a.reachNodes, a.reach = t, t.NumNodes(), cdg.NewBase(cdg.NewIndex(t))
	a.reach.Load(v, v.ActiveLIDs) //nolint:errcheck // a fresh index is as the fabric is wired
	return cold
}

// noteReach records how a pass checked reachability in audit.reach_passes
// and on its span.
func (a *Auditor) noteReach(span *telemetry.Span, p reachPass) {
	if p.cold == "" {
		a.reachWarm.Inc()
	} else {
		a.reachColdRuns.Inc()
	}
	if span == nil {
		return
	}
	if p.cold == "" {
		span.SetAttr("reach", "warm")
	} else {
		span.SetAttr("reach", "cold")
		span.SetAttr("reach_reason", p.cold)
	}
	span.SetAttr("lids_walked", p.lids)
	span.SetAttr("switches_entered", p.entered)
	span.SetAttr("columns_rewalked", p.rewalked)
}

// cdgPass is how one pass checked a CDG: warm when the kept graph was
// brought up to date, else cold, and why.
type cdgPass struct {
	cold           string
	pairs, entries int
}

// keep brings the kept CDG to r's routing of dlids, under cdgMu. held is
// false when that routing is cyclic: the graph is then lost, and the caller
// runs the cold check for its report.
func (a *Auditor) keep(t *topology.Topology, r cdg.Routes, dlids []ib.LID) (p cdgPass, held bool) {
	if a.cdgTopo != t || a.cdgNodes != t.NumNodes() {
		p.cold = coldTopology
		if a.cdgTopo == nil {
			p.cold = coldFirst
		}
		a.cdgTopo, a.cdgNodes, a.cdg = t, t.NumNodes(), cdg.NewMaintained(cdg.NewIndex(t))
	} else if p.cold = a.cdgCold; p.cold == "" {
		d, err := a.cdg.Update(r, dlids)
		p.pairs, p.entries = d.Pairs, d.Entries
		if err == nil {
			return p, true
		}
		if errors.Is(err, cdg.ErrCyclic) {
			p.cold, a.cdgCold = coldCyclic, coldCyclic
			return p, false
		}
		p.cold, a.cdg = coldTopology, cdg.NewMaintained(cdg.NewIndex(t))
	}
	err := a.cdg.Load(r, dlids)
	if errors.Is(err, cdg.ErrRewired) {
		p.cold, a.cdg = coldTopology, cdg.NewMaintained(cdg.NewIndex(t))
		err = a.cdg.Load(r, dlids)
	}
	p.pairs, a.cdgCold = a.cdg.Pairs(), ""
	if err != nil {
		p.cold, a.cdgCold = coldCyclic, coldCyclic
	}
	return p, err == nil
}

// note records how a pass checked its CDG in audit.cdg_passes and on its
// span.
func (a *Auditor) note(span *telemetry.Span, p cdgPass) {
	if p.cold == "" {
		a.cdgWarm.Inc()
	} else {
		a.cdgColdRuns.Inc()
	}
	if span == nil {
		return // boxing the counts would allocate for nothing
	}
	if p.cold == "" {
		span.SetAttr("cdg", "warm")
	} else {
		span.SetAttr("cdg", "cold")
		span.SetAttr("cdg_reason", p.cold)
	}
	span.SetAttr("pairs", p.pairs)
	span.SetAttr("entries_changed", p.entries)
}

// finish publishes a report: counters, span attributes, the last-report
// slot, and — on violations — a flight-recorder dump.
func (a *Auditor) finish(span *telemetry.Span, rep *Report) {
	a.runs.Inc()
	a.total.Add(int64(rep.Total))
	for kind, n := range rep.ByKind {
		a.reg.Counter("audit.violations." + kind).Add(int64(n))
	}
	a.reg.Gauge("audit.last_violations").Set(int64(rep.Total))
	a.reg.Gauge("audit.last_generation").Set(int64(rep.Gen))
	a.reg.WallHistogram("audit.run_wall_us", nil).Observe(rep.WallUS)
	if span != nil { // boxing the counts would allocate for nothing
		span.SetAttr("generation", int64(rep.Gen))
		span.SetAttr("lids", rep.LIDsChecked)
		span.SetAttr("violations", rep.Total)
	}
	span.End()
	a.mu.Lock()
	a.last = rep
	a.mu.Unlock()
	if rep.Total > 0 && a.rec != nil {
		a.rec.Dump(rep) //nolint:errcheck // dump-to-disk failure must not fail the audit
	}
}

// collector accumulates violations with exact counts and capped detail.
type collector struct {
	max    int
	total  int
	byKind map[string]int
	kept   []Violation
}

func (c *collector) add(v Violation) {
	c.total++
	if c.byKind == nil {
		c.byKind = map[string]int{}
	}
	c.byKind[string(v.Kind)]++
	if len(c.kept) < c.max {
		c.kept = append(c.kept, v)
	}
}

func (c *collector) addf(kind Kind, lid ib.LID, node string, format string, args ...any) {
	c.add(Violation{Kind: kind, LID: uint16(lid), Node: node, Detail: fmt.Sprintf(format, args...)})
}

// VMBinding is one VM's addressing claim, checked against the LID map.
type VMBinding struct {
	Name string          `json:"name"`
	LID  ib.LID          `json:"lid"`
	Hyp  topology.NodeID `json:"hypervisor"`
}
