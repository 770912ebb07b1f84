package core

import (
	"fppc/internal/arch"
	"fppc/internal/router"
	"fppc/internal/scheduler"
)

func init() {
	RegisterTarget(TargetSpec{
		ID:          TargetEnhancedFPPC,
		Name:        "enhanced-fppc",
		Description: "enhanced FPPC (individually addressable pins with interchange resource, TCAD 2014)",
		Capabilities: Capabilities{
			PinProgram: true,
			AutoGrow:   true,
			// The enhanced chip's reservoirs attach only along the top and
			// bottom bus rows, so growing taller never adds ports.
			FixedPortCapacity: true,
		},
		DefaultDims: func(cfg Config) Dims {
			h := cfg.FPPCHeight // height override shared with the classic FPPC
			if h == 0 {
				h = arch.EnhancedBaseHeight
			}
			return Dims{W: arch.EnhancedWidth, H: h}
		},
		Grow: func(d Dims) (Dims, bool) {
			h := d.H + 2
			if h > 4*arch.EnhancedWidth*40 {
				return d, false
			}
			return Dims{W: arch.EnhancedWidth, H: h}, true
		},
		NewChip:   func(d Dims) (*arch.Chip, error) { return arch.NewEnhancedFPPC(d.H) },
		ApplyDims: func(cfg *Config, d Dims) { cfg.FPPCHeight = d.H },
		Schedule:  scheduler.ScheduleFPPCWith,
		Route:     router.RouteFPPCContext,
	})
}
