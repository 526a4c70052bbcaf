package main

import (
	"testing"

	"risa/internal/network"
	"risa/internal/topology"
)

func TestRunDefaults(t *testing.T) {
	if err := run(topology.DefaultConfig(), network.DefaultConfig()); err != nil {
		t.Error(err)
	}
}

func TestRunRejectsBadTopology(t *testing.T) {
	bad := topology.DefaultConfig()
	bad.Racks = 0
	if err := run(bad, network.DefaultConfig()); err == nil {
		t.Error("invalid topology should fail")
	}
}

func TestRunRejectsBadNetwork(t *testing.T) {
	bad := network.DefaultConfig()
	bad.BoxUplinks = -1
	if err := run(topology.DefaultConfig(), bad); err == nil {
		t.Error("invalid fabric should fail")
	}
}
