package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/image"
	"repro/internal/scheme"
)

// SimFor builds the IFetch simulator for one pairing over this
// compilation's images: the cache indexes the pairing's cache-scheme
// image, and — for miss-path-decompression organizations — the bus
// fetches from the pairing's ROM-scheme image. Image builds share the
// compilation's artifact cache.
func (c *Compiled) SimFor(p scheme.Pairing, cfg cache.Config) (*cache.Sim, error) {
	im, rom, err := c.pairingImages(p)
	if err != nil {
		return nil, err
	}
	sim, err := cache.NewOrgSim(p.Org, cfg, im, rom, c.Prog)
	if err != nil {
		return nil, fmt.Errorf("core: pairing %s: %w", p.Name, err)
	}
	return sim, nil
}

// pairingImages returns the pairing's cache-scheme image and, for
// miss-path-decompression organizations, its ROM-scheme image (nil
// otherwise).
func (c *Compiled) pairingImages(p scheme.Pairing) (im, rom *image.Image, err error) {
	if im, err = c.Image(p.CacheScheme); err != nil {
		return nil, nil, err
	}
	if p.ROMScheme != "" {
		if rom, err = c.Image(p.ROMScheme); err != nil {
			return nil, nil, err
		}
	}
	return im, rom, nil
}

// replayPairings replays the suite's trace of c through every pairing
// at its default geometry, returning the results in pairing order.
func (s *Suite) replayPairings(c *Compiled, pairings []scheme.Pairing) ([]cache.Result, error) {
	sims := make([]*cache.Sim, len(pairings))
	for i, p := range pairings {
		var err error
		if sims[i], err = c.SimFor(p, cache.DefaultConfig(p.Org)); err != nil {
			return nil, err
		}
	}
	return s.replay(c, sims...)
}

// replay walks the suite's trace of c once, fanning every chunk out over
// the Sims (cache.RunStream), timed as one "sim" observation.
func (s *Suite) replay(c *Compiled, sims ...*cache.Sim) ([]cache.Result, error) {
	st, err := c.StreamTrace(s.opt.TraceBlocks, 0)
	if err != nil {
		return nil, err
	}
	return timed(s.drv, "sim", func() ([]cache.Result, error) {
		return cache.RunStream(st, sims...)
	})
}
