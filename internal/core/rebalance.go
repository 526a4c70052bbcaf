package core

import "risa/internal/sched"

// Rebalance is an extension beyond the paper (its conclusion motivates
// minimizing inter-rack usage; migration is the natural follow-up): it
// walks a set of live assignments and re-places every inter-rack VM whose
// whole request now fits inside a single rack, converting it to an
// intra-rack placement. VMs already intra-rack are untouched.
//
// The migration is transactional per VM: the old holdings are held
// (State.Hold) and released first (so the VM may move within its own
// racks' freed space), the new intra-rack placement is attempted through
// the usual pool walk (the candidate walk of Schedule, stopped short of
// the SUPER_RACK), and on failure State.Replay puts the held holdings
// back exactly — same boxes, same brick shares, same uplinks for both
// circuits; the capacity was just freed, so the replay cannot fail.
//
// It returns the number of VMs migrated. The entries of assignments are
// updated in place to their new placements.
func Rebalance(r *RISA, assignments []*sched.Assignment) int {
	var held sched.AssignmentState
	migrated := 0
	for _, a := range assignments {
		if a == nil || !a.InterRack() {
			continue
		}
		if r.migrate(a, &held) {
			migrated++
		}
	}
	return migrated
}

// migrate attempts to move one inter-rack assignment intra-rack, parking
// its holdings in held meanwhile.
func (r *RISA) migrate(a *sched.Assignment, held *sched.AssignmentState) bool {
	// Hold, release, try intra-rack, replay on failure. The caller keeps
	// holding a, so the release must not recycle it into the assignment
	// pool (ReleaseVMKeep); the re-placement comes back as a fresh pooled
	// record whose contents Adopt moves into a.
	r.st.Hold(a, held)
	r.st.ReleaseVMKeep(a)
	w := r.newWalk(held.VM)
	for w.next() {
		if moved := w.commit(); moved != nil {
			r.st.Adopt(a, moved)
			return true
		}
	}
	if _, err := r.st.Replay(a, held); err != nil {
		// Cannot happen: the exact capacity was freed above. Fail loudly
		// rather than lose a VM silently.
		panic("core: rebalance failed to restore a released placement: " + err.Error())
	}
	return false
}
