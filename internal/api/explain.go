package api

import (
	"net/http"
	"slices"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// ExplainHop is one switch traversal of an explained path: the egress the
// programmed LFT gives the destination LID, plus the provenance stamp of the
// 64-LID block that entry lives in — which mutation, span, engine and phase
// installed the forwarding decision this hop follows.
type ExplainHop struct {
	Switch topology.NodeID `json:"switch"`
	Desc   string          `json:"desc"`
	Egress ib.PortNum      `json:"egress_port"`
	// Provenance is nil when the block predates the provenance plane (or
	// provenance collection is disabled); such hops count as Unknown.
	Provenance *ib.Provenance `json:"provenance,omitempty"`
}

// ExplainSpan links an attributed hop into the reconfiguration trace: the
// span named by a hop's provenance, resolved from the live tracer so the
// response is self-contained (the full tree is at /v1/trace).
type ExplainSpan struct {
	ID         int            `json:"id"`
	Kind       string         `json:"kind"`
	Name       string         `json:"name,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	ModelledNS int64          `json:"modelled_ns"`
}

// ExplainResponse answers GET /v1/explain?src=&dst=: the same LFT walk as
// /v1/paths, with every hop attributed to the operation that wrote it.
type ExplainResponse struct {
	Src        string          `json:"src"`
	Dst        string          `json:"dst"`
	SrcNode    topology.NodeID `json:"src_node"`
	DstNode    topology.NodeID `json:"dst_node"`
	DstLID     uint16          `json:"dst_lid"`
	Generation uint64          `json:"generation"`
	Hops       []ExplainHop    `json:"hops"`
	Attributed int             `json:"attributed"`
	Unknown    int             `json:"unknown"`
	// Error reports a walk that ended early (drop, down port, loop); the
	// hops reached before the failure are still attributed above.
	Error string `json:"error,omitempty"`
	// Spans appears with ?format=trace: the distinct trace spans the hops'
	// provenance names, so the answer to "who routed me this way" links
	// straight into the /v1/trace tree.
	Spans []ExplainSpan `json:"spans,omitempty"`
	// SpansEvicted lists the span IDs the hops' provenance names that the
	// tracer no longer retains: a stamp outlives the span it names once the
	// span ring has wrapped, and the loss is reported, not skipped.
	SpansEvicted []int `json:"spans_evicted,omitempty"`
}

// Explain walks dst's LID through the snapshot exactly like Path and
// attributes each hop to the provenance stamp of the LFT block the egress
// decision came from. The walk error (if any) is carried in the response
// rather than failing it: a partially explained path is still evidence.
func (sn *Snapshot) Explain(src, dst string) (ExplainResponse, error) {
	pr, err := sn.Path(src, dst)
	resp := ExplainResponse{
		Src: pr.Src, Dst: pr.Dst,
		SrcNode: pr.SrcNode, DstNode: pr.DstNode,
		DstLID: pr.DstLID, Generation: pr.Generation,
		Hops: []ExplainHop{},
	}
	if err != nil && len(pr.Hops) == 0 && pr.DstLID == 0 {
		return resp, err // endpoint resolution failed: nothing to explain
	}
	for _, h := range pr.Hops {
		hop := ExplainHop{Switch: h.Switch, Desc: h.Desc, Egress: h.Egress}
		if lft := sn.lfts[h.Switch]; lft != nil {
			hop.Provenance = lft.ProvenanceOf(ib.LID(pr.DstLID))
		}
		if hop.Provenance != nil {
			resp.Attributed++
		} else {
			resp.Unknown++
		}
		resp.Hops = append(resp.Hops, hop)
	}
	if err != nil {
		resp.Error = err.Error()
	}
	return resp, nil
}

// attachSpans resolves the distinct span IDs the hops' provenance names
// into ExplainSpan records (?format=trace), and names the ones it cannot.
func (s *Server) attachSpans(resp *ExplainResponse) {
	var ids []int
	for _, h := range resp.Hops {
		if h.Provenance != nil && h.Provenance.Span > 0 {
			ids = append(ids, h.Provenance.Span)
		}
	}
	slices.Sort(ids)
	for _, id := range slices.Compact(ids) {
		sv, ok := s.tr.SpanByID(id)
		if !ok {
			resp.SpansEvicted = append(resp.SpansEvicted, id)
			continue
		}
		resp.Spans = append(resp.Spans, ExplainSpan{
			ID: sv.ID, Kind: string(sv.Kind), Name: sv.Name,
			Attrs: sv.Attrs, ModelledNS: sv.Modelled.Nanoseconds(),
		})
	}
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	src, dst := q.Get("src"), q.Get("dst")
	if src == "" || dst == "" {
		writeErr(w, http.StatusBadRequest, "explain needs ?src= and ?dst= (VM name or node ID)")
		return
	}
	format := q.Get("format")
	if format != "" && format != "trace" {
		writeErr(w, http.StatusBadRequest, "unknown explain format %q (want trace)", format)
		return
	}
	sn := s.Snapshot()
	resp, err := sn.Explain(src, dst)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	if format == "trace" {
		s.attachSpans(&resp)
	}
	writeJSON(w, http.StatusOK, resp)
}
