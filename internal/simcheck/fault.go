package simcheck

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/image"
	"repro/internal/trace"
	"repro/internal/verify"
)

// This file is the fault-injection matrix: deliberately malformed
// variants of one good simulation point — corrupted and truncated
// images, out-of-range trace references, mismatched ROM images,
// degenerate cache geometries — each of which the pipeline must reject
// with the documented typed error. A fault that is accepted, rejected
// with an untyped error, or answered with a panic is a finding under
// CheckSimFault.

// fault is one injected malformation: a name for diagnostics, the
// sentinel the rejection must wrap (nil when any error is acceptable),
// and the injection itself.
type fault struct {
	name string
	want error
	run  func() error
}

// FaultMatrix runs every applicable fault against the input's
// organization and reports the survivors. The input itself must be a
// valid simulation point — the faults are perturbations of it.
func FaultMatrix(in Input) *verify.Report {
	rep := &verify.Report{}
	stage := in.stage()
	spec, ok := in.Org.Spec()
	if !ok {
		rep.Errorf(stage, verify.CheckSimFault, verify.NoPos,
			"unknown organization %d", int(in.Org))
		return rep
	}

	construct := func(cfg cache.Config, im, rom *image.Image) error {
		_, err := cache.NewOrgSim(in.Org, cfg, im, rom, in.Prog)
		return err
	}
	replay := func(tr *trace.Trace) error {
		sim, err := cache.NewOrgSim(in.Org, in.Cfg, in.Im, in.ROM, in.Prog)
		if err != nil {
			return fmt.Errorf("building the unperturbed simulator: %w", err)
		}
		_, err = sim.Run(tr)
		return err
	}
	// Image faults perturb copies; the shared block slice is re-sliced
	// before mutation so the input stays pristine.
	corruptBlocks := func(im *image.Image, mutate func(blocks []image.Block)) *image.Image {
		cp := *im
		cp.Blocks = append([]image.Block(nil), im.Blocks...)
		mutate(cp.Blocks)
		return &cp
	}
	nb := len(in.Im.Blocks)

	faults := []fault{
		{"truncated image data", cache.ErrCorruptImage, func() error {
			cp := *in.Im
			cp.Data = cp.Data[:len(cp.Data)/2]
			return construct(in.Cfg, &cp, in.ROM)
		}},
		{"block extent past image data", cache.ErrCorruptImage, func() error {
			return construct(in.Cfg, corruptBlocks(in.Im, func(blocks []image.Block) {
				blocks[nb-1].Bytes += 1 << 20
			}), in.ROM)
		}},
		{"negative block address", cache.ErrCorruptImage, func() error {
			return construct(in.Cfg, corruptBlocks(in.Im, func(blocks []image.Block) {
				blocks[0].Addr = -1
			}), in.ROM)
		}},
		{"image missing a block", cache.ErrCorruptImage, func() error {
			cp := *in.Im
			cp.Blocks = cp.Blocks[:nb-1]
			return construct(in.Cfg, &cp, in.ROM)
		}},
		{"trace block out of range", cache.ErrMalformedTrace, func() error {
			return replay(&trace.Trace{Name: "fault", Events: []trace.Event{
				trace.MakeEvent(nb+7, false, trace.End)}})
		}},
		{"negative trace block", cache.ErrMalformedTrace, func() error {
			return replay(&trace.Trace{Name: "fault", Events: []trace.Event{
				trace.MakeEvent(-3, false, trace.End)}})
		}},
		{"trace successor out of range", cache.ErrMalformedTrace, func() error {
			return replay(&trace.Trace{Name: "fault", Events: []trace.Event{
				trace.MakeEvent(0, true, nb+5)}})
		}},
		{"zero cache sets", cache.ErrBadGeometry, func() error {
			cfg := in.Cfg
			cfg.Sets = 0
			return construct(cfg, in.Im, in.ROM)
		}},
		{"negative associativity", cache.ErrBadGeometry, func() error {
			cfg := in.Cfg
			cfg.Assoc = -1
			return construct(cfg, in.Im, in.ROM)
		}},
		{"zero line bytes", cache.ErrBadGeometry, func() error {
			cfg := in.Cfg
			cfg.LineBytes = 0
			return construct(cfg, in.Im, in.ROM)
		}},
	}
	if spec.HasL0 {
		faults = append(faults, fault{"negative L0 capacity", cache.ErrBadGeometry, func() error {
			cfg := in.Cfg
			cfg.L0Ops = -1
			return construct(cfg, in.Im, in.ROM)
		}})
	}
	if spec.NeedsROM {
		faults = append(faults,
			fault{"missing ROM image", nil, func() error {
				return construct(in.Cfg, in.Im, nil)
			}},
			fault{"truncated ROM data", cache.ErrCorruptImage, func() error {
				cp := *in.ROM
				cp.Data = cp.Data[:len(cp.Data)/2]
				return construct(in.Cfg, in.Im, &cp)
			}},
			fault{"ROM missing a block", cache.ErrCorruptImage, func() error {
				cp := *in.ROM
				cp.Blocks = cp.Blocks[:len(cp.Blocks)-1]
				return construct(in.Cfg, in.Im, &cp)
			}},
		)
	} else {
		faults = append(faults, fault{"unexpected ROM image", nil, func() error {
			return construct(in.Cfg, in.Im, in.Im)
		}})
	}

	for _, f := range faults {
		err := inject(f.run)
		switch {
		case err == nil:
			rep.Errorf(stage, verify.CheckSimFault, verify.NoPos,
				"%s: accepted without error", f.name)
		case errors.As(err, new(panicError)):
			rep.Errorf(stage, verify.CheckSimFault, verify.NoPos,
				"%s: %v", f.name, err)
		case f.want != nil && !errors.Is(err, f.want):
			rep.Errorf(stage, verify.CheckSimFault, verify.NoPos,
				"%s: rejected with untyped error %q, want one wrapping %q", f.name, err, f.want)
		}
	}
	return rep
}

// panicError marks a fault that crashed the pipeline instead of being
// rejected.
type panicError struct{ value any }

func (p panicError) Error() string { return fmt.Sprintf("panicked: %v", p.value) }

// inject runs one fault, converting a panic into a panicError so the
// matrix can keep going and report it.
func inject(run func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError{value: r}
		}
	}()
	return run()
}
