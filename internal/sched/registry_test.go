package sched

import (
	"strings"
	"testing"

	"risa/internal/network"
	"risa/internal/topology"
	"risa/internal/workload"
)

// stubScheduler is a minimal Scheduler for registry tests; the sched
// package itself registers nothing (algorithms live in core/baseline).
type stubScheduler struct{ st *State }

func (s *stubScheduler) Name() string { return "stub" }
func (s *stubScheduler) Schedule(vm workload.VM) (*Assignment, error) {
	return nil, nil
}
func (s *stubScheduler) Release(a *Assignment) {}

func registryState(t *testing.T) *State {
	t.Helper()
	st, err := NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRegistryNewAndRegistered(t *testing.T) {
	Register("test-stub", func(st *State) Scheduler { return &stubScheduler{st: st} })
	defer delete(registry, "test-stub")
	st := registryState(t)
	s, err := New("test-stub", st)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "stub" {
		t.Errorf("factory built %q", s.Name())
	}
	names := Registered()
	found := false
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Errorf("Registered() not sorted: %v", names)
		}
	}
	for _, n := range names {
		if n == "test-stub" {
			found = true
		}
	}
	if !found {
		t.Errorf("test-stub missing from Registered(): %v", names)
	}
}

func TestRegistryUnknownName(t *testing.T) {
	st := registryState(t)
	if _, err := New("no-such-algorithm", st); err == nil {
		t.Fatal("unknown name must error")
	} else if !strings.Contains(err.Error(), "no-such-algorithm") {
		t.Errorf("error %q does not name the unknown algorithm", err)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	Register("test-dup", func(st *State) Scheduler { return &stubScheduler{st: st} })
	defer delete(registry, "test-dup")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration must panic")
		}
	}()
	Register("test-dup", func(st *State) Scheduler { return &stubScheduler{st: st} })
}

func TestRegistryNilFactoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil factory must panic")
		}
	}()
	Register("test-nil", nil)
}
