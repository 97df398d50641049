// Package config implements the paper's system-configuration notation
// (Section II): a system is written p/i×j×k NET/r, meaning p processors
// served by i independent networks of type NET, each with j input ports
// and k output ports (p = i·j), and r resources on every output port.
//
// Examples from the paper:
//
//	16/16×1×1 SBUS/2   — sixteen private buses with two resources each
//	16/1×16×32 XBAR/1  — one 16-by-32 crossbar, one resource per port
//	16/8×2×2 OMEGA/2   — eight 2×2 Omega networks, two resources per port
//
// Parse accepts both '×' and 'x' as the dimension separator. Build
// materializes the configuration as a core.Network backed by the
// corresponding implementation package.
package config

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"rsin/internal/bus"
	"rsin/internal/core"
	"rsin/internal/crossbar"
	"rsin/internal/omega"
)

// NetworkType enumerates the RSIN classes studied in the paper.
type NetworkType int

// The supported network classes.
const (
	SBUS  NetworkType = iota // single shared bus (Section III)
	XBAR                     // crossbar of shared buses (Section IV)
	OMEGA                    // Omega multistage network (Section V)
	CUBE                     // indirect binary n-cube multistage network (Section II example)
)

// String returns the paper's name for the network type.
func (t NetworkType) String() string {
	switch t {
	case SBUS:
		return "SBUS"
	case XBAR:
		return "XBAR"
	case OMEGA:
		return "OMEGA"
	case CUBE:
		return "CUBE"
	default:
		return fmt.Sprintf("NetworkType(%d)", int(t))
	}
}

// ParseNetworkType parses a network-type name (case-insensitive).
func ParseNetworkType(s string) (NetworkType, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "SBUS", "BUS":
		return SBUS, nil
	case "XBAR", "CROSSBAR":
		return XBAR, nil
	case "OMEGA":
		return OMEGA, nil
	case "CUBE", "NCUBE":
		return CUBE, nil
	default:
		return 0, fmt.Errorf("config: unknown network type %q", s)
	}
}

// Config is one parsed p/i×j×k NET/r system description.
type Config struct {
	Processors int         // p
	Networks   int         // i
	Inputs     int         // j: input ports per network
	Outputs    int         // k: output ports per network
	Type       NetworkType // NET
	PerPort    int         // r: resources per output port
}

// Parse parses the paper's notation, e.g. "16/4x4x4 OMEGA/2".
func Parse(s string) (Config, error) {
	var c Config
	norm := strings.ReplaceAll(s, "×", "x")
	parts := strings.Split(norm, "/")
	if len(parts) != 3 {
		return c, fmt.Errorf("config: %q is not of the form p/ixjxk NET/r", s)
	}
	p, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return c, fmt.Errorf("config: bad processor count in %q: %v", s, err)
	}
	mid := strings.Fields(strings.TrimSpace(parts[1]))
	if len(mid) != 2 {
		return c, fmt.Errorf("config: %q middle section must be ixjxk NET", s)
	}
	dims := strings.Split(mid[0], "x")
	if len(dims) != 3 {
		return c, fmt.Errorf("config: %q dimensions must be ixjxk", s)
	}
	var ijk [3]int
	for n, d := range dims {
		v, err := strconv.Atoi(strings.TrimSpace(d))
		if err != nil {
			return c, fmt.Errorf("config: bad dimension %q in %q", d, s)
		}
		ijk[n] = v
	}
	typ, err := ParseNetworkType(mid[1])
	if err != nil {
		return c, err
	}
	r, err := strconv.Atoi(strings.TrimSpace(parts[2]))
	if err != nil {
		return c, fmt.Errorf("config: bad resource count in %q: %v", s, err)
	}
	c = Config{Processors: p, Networks: ijk[0], Inputs: ijk[1], Outputs: ijk[2], Type: typ, PerPort: r}
	return c, c.Validate()
}

// String renders the configuration in the paper's notation.
func (c Config) String() string {
	return fmt.Sprintf("%d/%dx%dx%d %s/%d",
		c.Processors, c.Networks, c.Inputs, c.Outputs, c.Type, c.PerPort)
}

// Validate checks structural consistency: p = i·j, positive dimensions,
// a port count i·k and resource count i·k·r that fit in an int, and
// per-type constraints (SBUS has one output port; OMEGA and CUBE are
// square with a power-of-two size of at most 64, the widest network
// omega.New builds). The products are checked by division, so no
// overflow can make a mismatched configuration pass.
func (c Config) Validate() error {
	switch {
	case c.Processors <= 0 || c.Networks <= 0 || c.Inputs <= 0 || c.Outputs <= 0 || c.PerPort <= 0:
		return fmt.Errorf("config: %s has non-positive dimensions", c)
	case c.Processors%c.Networks != 0 || c.Processors/c.Networks != c.Inputs:
		return fmt.Errorf("config: %s violates p = i·j", c)
	case c.Outputs > math.MaxInt/c.Networks || c.PerPort > math.MaxInt/(c.Networks*c.Outputs):
		return fmt.Errorf("config: %s: i·k·r overflows an int", c)
	}
	switch c.Type {
	case SBUS:
		if c.Outputs != 1 {
			return fmt.Errorf("config: %s: SBUS requires k = 1", c)
		}
	case OMEGA, CUBE:
		if c.Inputs != c.Outputs {
			return fmt.Errorf("config: %s: %s requires j = k", c, c.Type)
		}
		if c.Inputs < 2 || c.Inputs > 64 || c.Inputs&(c.Inputs-1) != 0 {
			return fmt.Errorf("config: %s: %s size must be a power of two from 2 to 64", c, c.Type)
		}
	case XBAR:
		// any shape
	default:
		return fmt.Errorf("config: %s: unknown network type", c)
	}
	return nil
}

// TotalResources returns i·k·r, the system-wide resource count.
func (c Config) TotalResources() int { return c.Networks * c.Outputs * c.PerPort }

// BuildOptions tune the materialized networks.
type BuildOptions struct {
	Seed       uint64           // seed for randomized policies
	LanePolicy omega.LanePolicy // Omega lane preference
	NoReroute  bool             // disable Omega in-network rerouting
}

// Build materializes the configuration as a core.Network.
func (c Config) Build(opt BuildOptions) (core.Network, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	mk := func(idx int) core.Network {
		switch c.Type {
		case SBUS:
			return bus.New(c.Inputs, c.PerPort)
		case XBAR:
			return crossbar.New(c.Inputs, c.Outputs, c.PerPort)
		case OMEGA, CUBE:
			opts := []omega.Option{
				omega.WithLanePolicy(opt.LanePolicy),
				omega.WithSeed(opt.Seed + uint64(idx)*0x9e3779b9),
			}
			if c.Type == CUBE {
				opts = append(opts, omega.WithWiring(omega.CubeWiring))
			}
			if opt.NoReroute {
				opts = append(opts, omega.WithoutReroute())
			}
			return omega.New(c.Inputs, c.PerPort, opts...)
		default:
			panic("config: unreachable network type")
		}
	}
	if c.Networks == 1 {
		return mk(0), nil
	}
	subs := make([]core.Network, c.Networks)
	for i := range subs {
		subs[i] = mk(i)
	}
	return core.NewPartitioned(subs), nil
}
