package config

import (
	"reflect"
	"strings"
	"testing"

	"rsin/internal/sim"
)

// mustParse parses a configuration string, failing the test on error.
func mustParse(t testing.TB, s string) Config {
	t.Helper()
	c, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{
		"16/16x1x1 SBUS/2",
		"16/1x16x32 XBAR/1",
		"16/8x2x2 OMEGA/2",
		"16/4x4x4 OMEGA/2",
		"16/2x8x1 SBUS/16",
	} {
		c, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if c.String() != s {
			t.Errorf("round trip %q → %q", s, c.String())
		}
	}
}

func TestParseUnicodeTimes(t *testing.T) {
	c, err := Parse("16/1×16×16 OMEGA/2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Inputs != 16 || c.Outputs != 16 || c.Type != OMEGA {
		t.Errorf("parsed %+v", c)
	}
}

func TestParsePaperExamples(t *testing.T) {
	// The three example systems of Section II.
	c := mustParse(t, "16/16x1x1 SBUS/2")
	if c.TotalResources() != 32 {
		t.Errorf("private buses: resources = %d, want 32", c.TotalResources())
	}
	c = mustParse(t, "16/1x16x32 XBAR/1")
	if c.TotalResources() != 32 {
		t.Errorf("crossbar: resources = %d, want 32", c.TotalResources())
	}
	c = mustParse(t, "16/1x16x16 OMEGA/2")
	if c.TotalResources() != 32 {
		t.Errorf("omega: resources = %d, want 32", c.TotalResources())
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"16",
		"16/16x1 SBUS/2",
		"16/16x1x1 SBUS",
		"16/16x1x1 FOO/2",
		"x/16x1x1 SBUS/2",
		"16/16xAx1 SBUS/2",
		"16/16x1x1 SBUS/y",
		"16/4x1x1 SBUS/2",                  // p ≠ i·j
		"16/16x1x2 SBUS/2",                 // SBUS k ≠ 1
		"16/1x16x8 OMEGA/2",                // OMEGA j ≠ k
		"12/1x12x12 OMEGA/2",               // OMEGA not power of two
		"16/16x1x1 SBUS/0",                 // r ≤ 0
		"128/1x128x128 OMEGA/1",            // omega.New caps the size at 64
		"2/3x6148914691236517206x1 XBAR/1", // i·j wraps to p
		"4/4x1x4611686018427387904 XBAR/1", // i·k wraps to 0
		"4/4x1x1 XBAR/4611686018427387904", // i·k·r wraps to 0
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseCube(t *testing.T) {
	// The third example system of Section II: a 16-by-16 indirect
	// binary n-cube with two resources per output port.
	c, err := Parse("16/1x16x16 CUBE/2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Type != CUBE || c.TotalResources() != 32 {
		t.Errorf("parsed %+v", c)
	}
	net, err := c.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if net.Name() != "CUBE(16x16,r=2)" {
		t.Errorf("built %q", net.Name())
	}
	g, ok := net.Acquire(3)
	if !ok {
		t.Fatal("cube acquire failed")
	}
	net.ReleasePath(g)
	net.ReleaseResource(g)
	// Cube inherits the multistage shape constraints.
	if _, err := Parse("16/1x16x8 CUBE/2"); err == nil {
		t.Error("non-square cube accepted")
	}
}

func TestParseTypeAliases(t *testing.T) {
	if typ, err := ParseNetworkType("crossbar"); err != nil || typ != XBAR {
		t.Errorf("crossbar alias: %v %v", typ, err)
	}
	if typ, err := ParseNetworkType("bus"); err != nil || typ != SBUS {
		t.Errorf("bus alias: %v %v", typ, err)
	}
}

func TestBuildShapes(t *testing.T) {
	cases := []struct {
		cfg       string
		procs     int
		ports     int
		resources int
		nameHint  string
	}{
		{"16/16x1x1 SBUS/2", 16, 16, 32, "SBUS"},
		{"16/1x16x32 XBAR/1", 16, 32, 32, "XBAR"},
		{"16/8x2x2 OMEGA/2", 16, 16, 32, "OMEGA"},
		{"16/2x8x8 XBAR/2", 16, 16, 32, "XBAR"},
	}
	for _, tc := range cases {
		net, err := mustParse(t, tc.cfg).Build(BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if net.Processors() != tc.procs {
			t.Errorf("%s: processors = %d, want %d", tc.cfg, net.Processors(), tc.procs)
		}
		if net.Ports() != tc.ports {
			t.Errorf("%s: ports = %d, want %d", tc.cfg, net.Ports(), tc.ports)
		}
		if net.TotalResources() != tc.resources {
			t.Errorf("%s: resources = %d, want %d", tc.cfg, net.TotalResources(), tc.resources)
		}
		if !strings.Contains(net.Name(), tc.nameHint) {
			t.Errorf("%s: name %q lacks %q", tc.cfg, net.Name(), tc.nameHint)
		}
	}
}

func TestBuildFunctional(t *testing.T) {
	// Every buildable configuration must grant from an idle state.
	for _, s := range []string{
		"16/16x1x1 SBUS/2",
		"16/1x16x32 XBAR/1",
		"16/8x2x2 OMEGA/2",
		"16/1x16x16 OMEGA/2",
	} {
		net, err := mustParse(t, s).Build(BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g, ok := net.Acquire(0)
		if !ok {
			t.Errorf("%s: idle acquire failed", s)
			continue
		}
		net.ReleasePath(g)
		net.ReleaseResource(g)
	}
}

// TestBuildIgnoresSeed pins BuildOptions.Seed's deprecation: Build is
// a pure function of the configuration, so two builds that differ only
// in the seed run the same simulation to the same Result, telemetry and
// detail counters included.
func TestBuildIgnoresSeed(t *testing.T) {
	for _, s := range []string{
		"16/16x1x1 SBUS/2",
		"16/4x4x4 XBAR/2",
		"16/1x16x16 OMEGA/2",
		"16/4x4x4 OMEGA/2",
		"16/1x16x16 CUBE/2",
	} {
		c := mustParse(t, s)
		var res [2]sim.Result
		for i := range res {
			net, err := c.Build(BuildOptions{Seed: uint64(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			res[i], err = sim.Run(net, sim.Config{
				Lambda: 0.15, MuN: 1, MuS: 0.1, Seed: 5, Warmup: 100, Samples: 5000,
			})
			if err != nil {
				t.Fatalf("%s: %v", s, err)
			}
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("%s: Seed 1 and Seed 2 builds ran differently:\n%+v\n%+v", s, res[0], res[1])
		}
	}
}

func TestTypeString(t *testing.T) {
	if SBUS.String() != "SBUS" || XBAR.String() != "XBAR" || OMEGA.String() != "OMEGA" {
		t.Error("type strings wrong")
	}
	if NetworkType(42).String() == "" {
		t.Error("unknown type should still format")
	}
}

// FuzzParse checks Parse against Build on arbitrary strings, seeded
// with the paper's configurations: every accepted string round-trips
// through String and Parse, and every accepted configuration of up to
// 4096 processors and resources builds without panicking into a
// network with p processors, i·k ports and i·k·r resources.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"16/16x1x1 SBUS/2",
		"16/8x2x1 SBUS/4",
		"16/1x16x32 XBAR/1",
		"16/4x4x4 XBAR/2",
		"16/1x16x16 OMEGA/2",
		"16/8x2x2 OMEGA/2",
		"16/1x16x16 CUBE/2",
		"16/1×16×16 OMEGA/2",
		"4096/64x64x64 XBAR/1",
		"4096/64x64x64 OMEGA/1",
		"128/1x128x128 OMEGA/1",
		"2/3x6148914691236517206x1 XBAR/1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := Parse(s)
		if err != nil {
			return
		}
		if back, err := Parse(c.String()); err != nil || back != c {
			t.Fatalf("Parse(%q) = %+v, but Parse(%q) = %+v, %v", s, c, c.String(), back, err)
		}
		if c.Processors > 4096 || c.TotalResources() > 4096 {
			return
		}
		net, err := c.Build(BuildOptions{})
		if err != nil {
			t.Fatalf("Build(%s): %v", c, err)
		}
		if net.Processors() != c.Processors || net.Ports() != c.Networks*c.Outputs || net.TotalResources() != c.TotalResources() {
			t.Fatalf("Build(%s) has %d processors, %d ports, %d resources", c, net.Processors(), net.Ports(), net.TotalResources())
		}
	})
}
