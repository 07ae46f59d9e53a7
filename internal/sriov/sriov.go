// Package sriov models the two InfiniBand SR-IOV architectures the paper
// contrasts (section IV): the Shared Port model that shipped in the
// Mellanox drivers, and the vSwitch model the paper argues for, in both of
// its proposed flavours (prepopulated LIDs, section V-A, and dynamic LID
// assignment, section V-B).
//
// The package captures the *addressing* semantics — which LID/GUID/GID
// triple a virtual function exposes, what happens to those addresses on
// migration, and who may speak on QP0 — plus the LID-capacity arithmetic of
// section V-A. The network-side consequences (LFT updates, SMP counts) live
// in internal/core.
package sriov

import (
	"fmt"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// Model selects the SR-IOV architecture of an HCA.
type Model uint8

const (
	// SharedPort: PF and VFs share one LID and the QP0/QP1 pair; VFs get
	// dedicated GUIDs/GIDs only. VMs cannot run an SM (QP0 filtered) and
	// cannot keep their LID across migration.
	SharedPort Model = iota + 1
	// VSwitchPrepopulated: every VF is a complete vHCA with its own LID,
	// assigned when the subnet boots whether or not a VM uses it.
	VSwitchPrepopulated
	// VSwitchDynamic: every VF is a complete vHCA whose LID is allocated
	// when a VM is created and freed when it is destroyed.
	VSwitchDynamic
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case SharedPort:
		return "shared-port"
	case VSwitchPrepopulated:
		return "vswitch-prepopulated"
	case VSwitchDynamic:
		return "vswitch-dynamic"
	default:
		return fmt.Sprintf("Model(%d)", uint8(m))
	}
}

// IsVSwitch reports whether the model gives each VF its own LID.
func (m Model) IsVSwitch() bool { return m == VSwitchPrepopulated || m == VSwitchDynamic }

// Addresses is the triple every IB endpoint carries (section II-B).
type Addresses struct {
	LID  ib.LID
	GUID ib.GUID
	GID  ib.GID
}

// VF is one virtual function of an SR-IOV HCA.
type VF struct {
	Index    int
	GUID     ib.GUID // the vGUID currently programmed (migrates with a VM)
	LID      ib.LID  // own LID in vSwitch models; 0 under Shared Port
	Attached bool    // attached to a running VM
	// Held marks a VF that is spoken for without being attached: the
	// destination a staged migration will land on, the source of one in
	// flight — and the source of one that died mid-commit, which stays held
	// (quarantined) rather than re-advertising a half-moved LID.
	Held bool
}

// Free reports whether the VF can take a new VM.
func (v VF) Free() bool { return !v.Attached && !v.Held }

// HCA is an SR-IOV capable adapter on a hypervisor.
type HCA struct {
	Model  Model
	Node   topology.NodeID // the physical CA in the fabric
	Prefix ib.GIDPrefix

	PFGUID ib.GUID
	PFLID  ib.LID

	VFs []VF
}

// NewHCA creates an HCA with the given number of VFs. VF vGUIDs are derived
// from the PF GUID (pfGUID | vf index + 1), the scheme alias-GUID support
// commonly uses.
func NewHCA(model Model, node topology.NodeID, pfGUID ib.GUID, pfLID ib.LID, numVFs int) (*HCA, error) {
	if numVFs < 1 {
		return nil, fmt.Errorf("sriov: need at least one VF, got %d", numVFs)
	}
	if numVFs > 126 {
		// ConnectX-3 supports up to 126 VFs (section V-A, footnote 2).
		return nil, fmt.Errorf("sriov: %d VFs exceeds the 126-VF adapter limit", numVFs)
	}
	h := &HCA{
		Model:  model,
		Node:   node,
		Prefix: ib.DefaultGIDPrefix,
		PFGUID: pfGUID,
		PFLID:  pfLID,
	}
	for i := 0; i < numVFs; i++ {
		h.VFs = append(h.VFs, VF{
			Index: i,
			GUID:  pfGUID + ib.GUID(i+1),
		})
	}
	return h, nil
}

// NumVFs returns the number of virtual functions.
func (h *HCA) NumVFs() int { return len(h.VFs) }

// FreeVF returns the index of the lowest free (unattached, unheld) VF, or -1.
func (h *HCA) FreeVF() int {
	for i := range h.VFs {
		if h.VFs[i].Free() {
			return i
		}
	}
	return -1
}

// FreeCount returns how many VFs are free.
func (h *HCA) FreeCount() int {
	n := 0
	for i := range h.VFs {
		if h.VFs[i].Free() {
			n++
		}
	}
	return n
}

// Hold takes a VF out of the free pool without attaching it.
func (h *HCA) Hold(vf int) { h.VFs[vf].Held = true }

// Release returns a held VF to the free pool.
func (h *HCA) Release(vf int) { h.VFs[vf].Held = false }

// AttachedCount returns how many VFs are bound to VMs, without allocating.
// Shard snapshots call it per hypervisor after every mutation.
func (h *HCA) AttachedCount() int {
	n := 0
	for i := range h.VFs {
		if h.VFs[i].Attached {
			n++
		}
	}
	return n
}

// AttachedVFs returns the indices of VFs bound to VMs.
func (h *HCA) AttachedVFs() []int {
	var out []int
	for i := range h.VFs {
		if h.VFs[i].Attached {
			out = append(out, i)
		}
	}
	return out
}

// VFAddresses returns the address triple a VM sees through the given VF.
// Under Shared Port the LID is the PF's (the root of the migration problem:
// the LID cannot follow the VM); under vSwitch it is the VF's own.
func (h *HCA) VFAddresses(vf int) (Addresses, error) {
	if vf < 0 || vf >= len(h.VFs) {
		return Addresses{}, fmt.Errorf("sriov: no VF %d on HCA %d", vf, h.Node)
	}
	return h.Addresses(h.VFs[vf]), nil
}

// Addresses returns the triple a VM would see through a VF of this HCA in
// the given state — the VF as it is, or as a staged migration will leave it.
func (h *HCA) Addresses(v VF) Addresses {
	lid := v.LID
	if h.Model == SharedPort {
		lid = h.PFLID
	}
	return Addresses{LID: lid, GUID: v.GUID, GID: ib.MakeGID(h.Prefix, v.GUID)}
}

// PFAddresses returns the physical function's address triple.
func (h *HCA) PFAddresses() Addresses {
	return Addresses{LID: h.PFLID, GUID: h.PFGUID, GID: ib.MakeGID(h.Prefix, h.PFGUID)}
}

// QP0Allowed reports whether an endpoint using the given function may send
// SMPs on QP0. Shared Port discards all VF SMPs toward QP0 (section IV-A),
// which is why an SM cannot run inside a VM there; vSwitch VFs are full
// vHCAs.
func (h *HCA) QP0Allowed(vf int) bool {
	if vf < 0 { // the PF itself
		return true
	}
	return h.Model.IsVSwitch()
}

// Attach marks a VF as bound to a VM. For VSwitchDynamic the caller must
// have set the VF's LID first (SetVFLID); prepopulated VFs already carry
// one.
func (h *HCA) Attach(vf int) error {
	if vf < 0 || vf >= len(h.VFs) {
		return fmt.Errorf("sriov: no VF %d", vf)
	}
	if h.VFs[vf].Attached {
		return fmt.Errorf("sriov: VF %d already attached", vf)
	}
	if h.VFs[vf].Held {
		return fmt.Errorf("sriov: VF %d is held", vf)
	}
	if h.Model.IsVSwitch() && h.VFs[vf].LID == ib.LIDUnassigned {
		return fmt.Errorf("sriov: vSwitch VF %d has no LID", vf)
	}
	h.VFs[vf].Attached = true
	return nil
}

// Detach unbinds a VF from its VM.
func (h *HCA) Detach(vf int) error {
	if vf < 0 || vf >= len(h.VFs) {
		return fmt.Errorf("sriov: no VF %d", vf)
	}
	if !h.VFs[vf].Attached {
		return fmt.Errorf("sriov: VF %d not attached", vf)
	}
	h.VFs[vf].Attached = false
	return nil
}

// SetVFLID programs a VF's LID (the SM does this through a PortInfo Set on
// the vHCA). Shared Port VFs cannot hold LIDs.
func (h *HCA) SetVFLID(vf int, lid ib.LID) error {
	if vf < 0 || vf >= len(h.VFs) {
		return fmt.Errorf("sriov: no VF %d", vf)
	}
	if h.Model == SharedPort {
		return fmt.Errorf("sriov: shared-port VFs share the PF LID; cannot set LID %d on VF %d", lid, vf)
	}
	h.VFs[vf].LID = lid
	return nil
}

// SetVFGUID programs a VF's vGUID (migrates with the VM).
func (h *HCA) SetVFGUID(vf int, guid ib.GUID) error {
	if vf < 0 || vf >= len(h.VFs) {
		return fmt.Errorf("sriov: no VF %d", vf)
	}
	h.VFs[vf].GUID = guid
	return nil
}

// LIDsConsumed returns how many LIDs this HCA occupies in the subnet under
// its model: 1 for Shared Port (and for the vSwitch PF, which shares the
// vSwitch's LID), plus one per LID-holding VF.
func (h *HCA) LIDsConsumed() int {
	n := 1 // the PF; the vSwitch itself shares the PF LID (section V-A)
	for i := range h.VFs {
		if h.VFs[i].LID != ib.LIDUnassigned {
			n++
		}
	}
	return n
}
