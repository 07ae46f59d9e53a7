package cloud

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"ibvsim/internal/core"
	"ibvsim/internal/sriov"
	"ibvsim/internal/telemetry"
)

// migrationOutcome is what one move left behind, in the terms a wave and a
// single migration must agree on.
type migrationOutcome struct {
	Report MigrationReport
	LFTs   string
	Log    []string
	Spans  []string
}

// outcomeOf fingerprints the cloud after one move. Span IDs and wall times
// are run-dependent and dropped; a span is reduced to "kind<parent kind",
// with the lft-swap span's parent left out: a wave's distribution belongs to
// the wave, a single migration's to its migration span, by design.
func outcomeOf(c *Cloud, rep MigrationReport, logFrom, spanFrom int) migrationOutcome {
	rep.Span, rep.Plan.Duration = 0, 0
	out := migrationOutcome{Report: rep}
	d := sha256.New()
	for _, sw := range c.SM.Topo.Switches() {
		fmt.Fprintf(d, "switch %d\n", sw)
		d.Write(c.SM.ProgrammedLFT(sw).Bytes())
	}
	out.LFTs = hex.EncodeToString(d.Sum(nil))
	for _, e := range c.SM.Log().Events()[logFrom:] {
		out.Log = append(out.Log, e.Kind.String()+" "+e.Msg)
	}
	spans := c.SM.Telemetry().Tracer().SpansSince(spanFrom)
	kind := map[int]telemetry.SpanKind{}
	for _, sp := range spans {
		kind[sp.ID] = sp.Kind
	}
	for _, sp := range spans {
		s := string(sp.Kind)
		if sp.Kind != telemetry.SpanLFTSwap {
			s += "<" + string(kind[sp.Parent])
		}
		out.Spans = append(out.Spans, s)
	}
	sort.Strings(out.Spans)
	return out
}

// TestWaveOfOneMatchesMigrateVM pins the merge of the single-move and wave
// implementations: under every SR-IOV model and every transition
// mitigation, a wave of one move and MigrateVM of the same move on twin
// clouds leave the same report, the same LFTs, the same SM event-log lines
// and the same span tree.
func TestWaveOfOneMatchesMigrateVM(t *testing.T) {
	for _, model := range []sriov.Model{sriov.SharedPort, sriov.VSwitchPrepopulated, sriov.VSwitchDynamic} {
		for _, mit := range []core.Mitigation{core.MitigationNone, core.MitigationInvalidate, core.MitigationDrain} {
			t.Run(model.String()+"/"+mit.String(), func(t *testing.T) {
				run := func(wave bool) migrationOutcome {
					c, _ := testCloud(t, model, FirstFit{})
					c.RC.Mitigation, c.RC.DrainTime = mit, 3*time.Millisecond
					hyps := c.Hypervisors()
					if _, err := c.CreateVMOn("vm", hyps[0]); err != nil {
						t.Fatal(err)
					}
					if _, err := c.CreateVMOn("other", hyps[9]); err != nil {
						t.Fatal(err)
					}
					logFrom := c.SM.Log().Len()
					spanFrom := c.SM.Telemetry().Tracer().LastSpanID()
					var rep MigrationReport
					if wave {
						wr, err := c.MigrateWaveProv([]Move{{VM: "vm", To: hyps[9]}}, nil)
						if err != nil {
							t.Fatal(err)
						}
						if len(wr.Reports) != 1 || wr.HostSMPs != wr.Reports[0].HostSMPs ||
							wr.Plan.SMPs != wr.Reports[0].Plan.SMPs {
							t.Fatalf("wave report %+v does not add up to its one member", wr)
						}
						rep = wr.Reports[0]
					} else {
						var err error
						if rep, err = c.MigrateVM("vm", hyps[9]); err != nil {
							t.Fatal(err)
						}
					}
					return outcomeOf(c, rep, logFrom, spanFrom)
				}
				single, wave := run(false), run(true)
				if !reflect.DeepEqual(single, wave) {
					t.Errorf("a wave of one is not the single migration:\n single %+v\n wave   %+v", single, wave)
				}
				if model.IsVSwitch() && single.Report.Plan.SMPs == 0 {
					t.Error("the move rewrote no LFT block; the comparison is vacuous")
				}
			})
		}
	}
}
