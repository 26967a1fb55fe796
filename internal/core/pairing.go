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
	im, err := c.Image(p.CacheScheme)
	if err != nil {
		return nil, err
	}
	var rom *image.Image
	if p.ROMScheme != "" {
		if rom, err = c.Image(p.ROMScheme); err != nil {
			return nil, err
		}
	}
	sim, err := cache.NewOrgSim(p.Org, cfg, im, rom, c.Prog)
	if err != nil {
		return nil, fmt.Errorf("core: pairing %s: %w", p.Name, err)
	}
	return sim, nil
}
