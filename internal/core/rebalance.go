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
// It returns the number of VMs migrated. Every VM it visits gets a new
// record, migrated or restored, and its entry of assignments is rebound
// to that record; the old one is back in the pool.
func Rebalance(r *RISA, assignments []*sched.Assignment) int {
	var held sched.AssignmentState
	migrated := 0
	for i, a := range assignments {
		if a == nil || !a.InterRack() {
			continue
		}
		var moved bool
		if assignments[i], moved = r.migrate(a, &held); moved {
			migrated++
		}
	}
	return migrated
}

// migrate attempts to move one inter-rack assignment intra-rack, parking
// its holdings in held meanwhile, and returns the VM's record: the new
// placement's, or the restored one's when no rack fits.
func (r *RISA) migrate(a *sched.Assignment, held *sched.AssignmentState) (*sched.Assignment, bool) {
	r.st.Hold(a, held)
	r.st.ReleaseVM(a)
	w := r.newWalk(held.VM)
	for w.next() {
		if moved := w.commit(); moved != nil {
			return moved, true
		}
	}
	restored, err := r.st.Replay(nil, held)
	if err != nil {
		// Cannot happen: the exact capacity was freed above. Fail loudly
		// rather than lose a VM silently.
		panic("core: rebalance failed to restore a released placement: " + err.Error())
	}
	return restored, false
}
