package faults

import (
	"fmt"
	"reflect"
	"testing"
)

func genConfig() GenConfig {
	return GenConfig{
		Seed:         1,
		Horizon:      100000,
		Racks:        18,
		BoxesPerRack: 6,
		MTBF:         20000,
		MTTR:         2000,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(genConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(genConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	cfg := genConfig()
	cfg.Seed = 2
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical plans")
	}
	if len(a.Events) == 0 {
		t.Fatal("plan is empty at these rates")
	}
}

// TestGenerateStableUnderGrowth: adding racks must not reshuffle the
// outage schedule of the racks that already existed — each unit owns its
// random stream.
func TestGenerateStableUnderGrowth(t *testing.T) {
	small, err := Generate(genConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := genConfig()
	cfg.Racks = 36
	big, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	filter := func(p *Plan, racks int) []Event {
		var out []Event
		for _, e := range p.Events {
			if e.Rack < racks {
				out = append(out, e)
			}
		}
		return out
	}
	if !reflect.DeepEqual(filter(small, 18), filter(big, 18)) {
		t.Fatal("growing the cluster reshuffled existing units' outages")
	}
}

// TestGeneratePairing: per box, events alternate fail/repair with
// strictly increasing times, and every failure strikes before the
// horizon.
func TestGeneratePairing(t *testing.T) {
	cfg := genConfig()
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(cfg.Racks, cfg.BoxesPerRack); err != nil {
		t.Fatal(err)
	}
	type unitState struct {
		down  bool
		lastT int64
	}
	units := map[string]*unitState{}
	for _, e := range p.Events {
		if e.Tier != BoxTier {
			t.Fatalf("%v: the generator draws box outages only", e)
		}
		key := fmt.Sprintf("%d/%d", e.Rack, e.Box)
		st := units[key]
		if st == nil {
			st = &unitState{}
			units[key] = st
		}
		if e.Repair == !st.down {
			t.Fatalf("%v: unit %s was %v", e, key, map[bool]string{true: "already down", false: "not down"}[!st.down])
		}
		if st.down && e.T <= st.lastT || !st.down && e.T < st.lastT {
			t.Fatalf("%v: unit %s time did not advance past %d", e, key, st.lastT)
		}
		if !e.Repair && e.T >= cfg.Horizon {
			t.Fatalf("%v: failure on or past horizon %d", e, cfg.Horizon)
		}
		st.down = !e.Repair
		st.lastT = e.T
	}
}

func TestGenerateDisabledTiers(t *testing.T) {
	cfg := genConfig()
	cfg.MTBF, cfg.MTTR = 0, 0
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 0 {
		t.Fatalf("disabled tiers generated %d events", len(p.Events))
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	bad := []func(*GenConfig){
		func(c *GenConfig) { c.Horizon = 0 },
		func(c *GenConfig) { c.Racks = 0 },
		func(c *GenConfig) { c.BoxesPerRack = 0 },
		func(c *GenConfig) { c.MTTR = 0 },
	}
	for i, mutate := range bad {
		cfg := genConfig()
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	bad := []Plan{
		{Events: []Event{{T: -1, Tier: RackTier}}},
		{Events: []Event{{T: 5, Tier: RackTier}, {T: 4, Tier: RackTier}}},
		{Events: []Event{{T: 0, Tier: RackTier, Rack: 18}}},
		{Events: []Event{{T: 0, Tier: BoxTier, Rack: 0, Box: 6}}},
		{Events: []Event{{T: 0, Tier: RackTier + 1}}}, // the tier after RackTier does not exist
		{Events: []Event{{T: 0, Tier: Tier(9)}}},
		// Equal-time order violation: a failure sorted before a repair.
		{Events: []Event{{T: 7, Tier: RackTier, Rack: 1}, {T: 7, Tier: RackTier, Rack: 0, Repair: true}}},
	}
	for i, p := range bad {
		if err := p.Validate(18, 6); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
	good := RackFailure(0, 100, 200)
	if err := good.Validate(18, 6); err != nil {
		t.Errorf("RackFailure plan rejected: %v", err)
	}
}
