package sched

import (
	"fmt"
	"sort"
)

// Factory constructs one scheduler instance bound to st. Factories are
// registered once per algorithm name via Register.
type Factory func(st *State) Scheduler

var registry = map[string]Factory{}

// Register records a factory under the algorithm's paper name. It is
// called from the implementing packages' init functions — core registers
// RISA and RISA-BF, baseline registers NULB and NALB — so importing a
// package makes its algorithms constructible through New. Registering a
// name twice panics: two algorithms must not share a name.
func Register(name string, f Factory) {
	if f == nil {
		panic("sched: nil factory registered for " + name)
	}
	if _, dup := registry[name]; dup {
		panic("sched: duplicate scheduler registration: " + name)
	}
	registry[name] = f
}

// New constructs a registered scheduler bound to st. It is the single
// construction path for algorithms chosen by name — experiments and the
// CLI go through it — replacing the switch-on-name construction that
// used to be scattered across callers.
func New(name string, st *State) (Scheduler, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown scheduler %q (registered: %v)", name, Registered())
	}
	return f(st), nil
}

// Registered returns the registered algorithm names in sorted order.
func Registered() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
