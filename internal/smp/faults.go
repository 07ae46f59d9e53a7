package smp

import (
	"errors"
	"sync"

	"ibvsim/internal/cdg"
	"ibvsim/internal/topology"
)

// ErrTimeout is returned by a faulty transport when an SMP (or its response)
// is lost: the sender waited for the configured response timeout and heard
// nothing. It is the only retryable transport error — everything else
// indicates a broken path and retrying cannot help.
var ErrTimeout = errors.New("smp: timed out waiting for response")

// Sender is the transport seam the subnet manager sends SMPs through. The
// plain Transport implements it with perfect delivery; FaultyTransport wraps
// a Transport with probabilistic loss, duplication and delay.
type Sender interface {
	SendDirected(src topology.NodeID, p *SMP) (topology.NodeID, error)
	SendLIDRouted(src topology.NodeID, p *SMP, r cdg.Routes) (topology.NodeID, error)
}

var (
	_ Sender = (*Transport)(nil)
	_ Sender = (*FaultyTransport)(nil)
)

// FaultConfig sets the per-SMP fault probabilities of a FaultyTransport.
// The three probabilities partition one dice roll, so their sum must not
// exceed 1; the remainder is clean delivery.
type FaultConfig struct {
	// Drop is the probability the request is lost before reaching its
	// target: the switch state is untouched and the sender times out.
	Drop float64
	// Delay is the probability the request is delivered but its response is
	// late or lost: the switch applied the update, yet the sender still
	// times out and will retransmit. Retransmitting LFT Set SMPs is safe
	// because block writes are idempotent.
	Delay float64
	// Duplicate is the probability the request is delivered twice (e.g. a
	// spurious retransmission by a lower layer). The sender sees success.
	Duplicate float64
	// Seed keys every verdict, so fault schedules are reproducible.
	Seed int64
}

// FaultProfile is the mutable rate portion of a FaultConfig: everything
// except the seed. Scenario campaigns swap profiles mid-run to open and
// close network-fault windows without disturbing the seeded dice streams.
type FaultProfile struct {
	Drop      float64
	Delay     float64
	Duplicate float64
}

// Profile extracts the rates from a config.
func (c FaultConfig) Profile() FaultProfile {
	return FaultProfile{Drop: c.Drop, Delay: c.Delay, Duplicate: c.Duplicate}
}

// FaultStats counts the verdicts a FaultyTransport handed out.
type FaultStats struct {
	// Attempts is every send presented to the transport, faulted or not.
	Attempts int
	// Dropped requests never reached the target.
	Dropped int
	// Delayed requests reached the target but the sender timed out anyway.
	Delayed int
	// Duplicated requests reached the target twice.
	Duplicated int
}

// FaultyTransport wraps a Transport with seeded probabilistic faults, one
// dice stream per destination (roll): a distribution meets the same faults
// on any number of workers. It is safe for concurrent use; one mutex guards
// its state (the wrapped Transport guards its own counters).
type FaultyTransport struct {
	inner *Transport

	mu      sync.Mutex
	cfg     FaultConfig
	st      FaultStats
	rolls   map[uint64]uint64 // SMPs sent so far, by destination key
	perDest map[topology.NodeID]int
}

// NewFaultyTransport wraps inner with the given fault configuration.
func NewFaultyTransport(inner *Transport, cfg FaultConfig) *FaultyTransport {
	return &FaultyTransport{
		inner:   inner,
		cfg:     cfg,
		rolls:   map[uint64]uint64{},
		perDest: map[topology.NodeID]int{},
	}
}

// Config returns the fault configuration (the rates are a snapshot; see
// SetProfile).
func (f *FaultyTransport) Config() FaultConfig {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cfg
}

// SetProfile replaces the drop/delay/duplicate rates mid-run. Every send
// still consumes exactly one roll of its destination's stream, so a seeded
// fault schedule replays identically as long as the profile changes happen
// at the same points in each destination's send sequence. Safe to call
// concurrently with sends.
func (f *FaultyTransport) SetProfile(p FaultProfile) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg.Drop, f.cfg.Delay, f.cfg.Duplicate = p.Drop, p.Delay, p.Duplicate
}

// Stats returns a snapshot of the fault verdicts so far.
func (f *FaultyTransport) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

// DeliveredTo returns how many SMPs were actually delivered to the node
// (duplicates count twice, drops not at all).
func (f *FaultyTransport) DeliveredTo(n topology.NodeID) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.perDest[n]
}

type verdict uint8

const (
	deliver verdict = iota
	drop
	delay
	duplicate
)

// roll hands out the verdict for the next SMP to the destination key: a
// draw in [0,1) hashed from the seed, the key and how many SMPs went to the
// key before, checked against the rates.
func (f *FaultyTransport) roll(key uint64) verdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.st.Attempts++
	k := f.rolls[key]
	f.rolls[key]++
	r := float64(mix(mix(mix(uint64(f.cfg.Seed))^key)^k)>>11) / (1 << 53)
	switch {
	case r < f.cfg.Drop:
		f.st.Dropped++
		return drop
	case r < f.cfg.Drop+f.cfg.Delay:
		f.st.Delayed++
		return delay
	case r < f.cfg.Drop+f.cfg.Delay+f.cfg.Duplicate:
		f.st.Duplicated++
		return duplicate
	default:
		return deliver
	}
}

// mix is SplitMix64's output function.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (f *FaultyTransport) delivered(n topology.NodeID) {
	f.mu.Lock()
	f.perDest[n]++
	f.mu.Unlock()
}

func (f *FaultyTransport) send(v verdict, once func() (topology.NodeID, error)) (topology.NodeID, error) {
	if v == drop {
		return topology.NoNode, ErrTimeout
	}
	got, err := once()
	if err != nil {
		return got, err
	}
	f.delivered(got)
	switch v {
	case duplicate:
		if got2, err2 := once(); err2 == nil {
			f.delivered(got2)
		}
		return got, nil
	case delay:
		// The switch applied the update, but the sender never hears back.
		return topology.NoNode, ErrTimeout
	default:
		return got, nil
	}
}

// SendDirected implements Sender, applying one fault verdict per call from
// the stream of the node the path ends at (NoNode's, for a broken path).
func (f *FaultyTransport) SendDirected(src topology.NodeID, p *SMP) (topology.NodeID, error) {
	end, _ := f.inner.pathEnd(src, p.Path)
	return f.send(f.roll(uint64(uint32(end))), func() (topology.NodeID, error) {
		return f.inner.SendDirected(src, p)
	})
}

// SendLIDRouted implements Sender, applying one fault verdict per call from
// the DLID's stream, keyed apart from the nodes by the top bit.
func (f *FaultyTransport) SendLIDRouted(src topology.NodeID, p *SMP, r cdg.Routes) (topology.NodeID, error) {
	return f.send(f.roll(1<<63|uint64(p.DLID)), func() (topology.NodeID, error) {
		return f.inner.SendLIDRouted(src, p, r)
	})
}
