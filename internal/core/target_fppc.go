package core

import (
	"fppc/internal/arch"
	"fppc/internal/router"
	"fppc/internal/scheduler"
)

func init() {
	RegisterTarget(TargetSpec{
		ID:          TargetFPPC,
		Name:        "fppc",
		Description: "field-programmable pin-constrained chip (shared-pin buses and mix loops, Figure 5)",
		Capabilities: Capabilities{
			PinProgram: true,
			AutoGrow:   true,
		},
		DefaultDims: func(cfg Config) Dims {
			h := cfg.FPPCHeight
			if h == 0 {
				h = 21 // the paper's 12x21 workhorse size
			}
			return Dims{W: arch.FPPCWidth, H: h}
		},
		Grow: func(d Dims) (Dims, bool) {
			h := d.H + 2
			if h > 4*arch.FPPCWidth*40 {
				return d, false
			}
			return Dims{W: arch.FPPCWidth, H: h}, true
		},
		NewChip:   func(d Dims) (*arch.Chip, error) { return arch.NewFPPC(d.H) },
		ApplyDims: func(cfg *Config, d Dims) { cfg.FPPCHeight = d.H },
		Schedule:  scheduler.ScheduleFPPCWith,
		Route:     router.RouteFPPCContext,
	})
}
