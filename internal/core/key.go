package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/sched"
	"repro/internal/scheme"
	"repro/internal/workload"
)

// ArtifactCacheVersion is folded into every artifact-cache key. Bump it
// when a build stage changes behaviour without any of its hashed inputs
// changing (a new encoder layout, a different ATT serialization, ...):
// the version change invalidates every previously cached artifact at
// once. Input-driven invalidation needs no version bump — a changed
// program or scheme configuration already produces a different key.
const ArtifactCacheVersion = "v1"

// profileKey fingerprints a workload profile. Generation is fully
// deterministic given the profile, so the profile's field values are the
// complete input of the compile stage.
func profileKey(p workload.Profile) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%#v", p)))
	return "prog/" + ArtifactCacheVersion + "/" + hex.EncodeToString(h[:16])
}

// programHash is the content hash of a scheduled program: everything the
// encoders and the image builder consume — per-block control metadata,
// MOP structure and the exact 40-bit operation encodings. Programs with
// equal hashes yield bit-identical encoders and images.
func programHash(sp *sched.Program) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:]) //tepic:ignore-err hash.Hash.Write never fails
	}
	put(uint64(len(sp.Blocks)))
	for _, b := range sp.Blocks {
		put(uint64(b.ID))
		put(uint64(b.Fn))
		put(uint64(int64(b.TakenTarget)))
		put(uint64(int64(b.FallTarget)))
		put(uint64(int64(b.Callee)))
		put(math.Float64bits(b.TakenProb))
		put(uint64(len(b.MOPs)))
		put(uint64(len(b.Ops)))
		for i := range b.Ops {
			put(b.Ops[i].Encode())
		}
	}
	put(uint64(len(sp.FuncEntries)))
	for _, e := range sp.FuncEntries {
		put(uint64(e))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// schemeKey is the canonical content descriptor of an encoding scheme
// configuration, taken from the scheme registry (stream schemes key
// their exact cut points, not their display names; Huffman schemes fold
// in the code-length bound that shapes their tables).
func schemeKey(name string) string {
	if sc, ok := scheme.Lookup(name); ok {
		return sc.ContentKey
	}
	return "unknown/" + name
}

// encoderKey addresses a (program, scheme) encoder artifact. The program
// name is excluded: encoders depend only on operation content, so two
// identically scheduled programs share their Huffman tables.
func (c *Compiled) encoderKey(scheme string) string {
	return "enc/" + ArtifactCacheVersion + "/" + c.contentKey() + "/" + schemeKey(scheme)
}

// imageKey addresses a (program, scheme) image artifact. Unlike
// encoderKey it folds in the program name, which the image embeds.
func (c *Compiled) imageKey(scheme string) string {
	return "img/" + ArtifactCacheVersion + "/" + c.contentKey() + "/" + c.Name + "/" + schemeKey(scheme)
}

// decodePlanKey addresses a (program, scheme) decode-plan artifact: the
// prebuilt lane-kernel decode tables plus the image's block geometry.
// Like imageKey it folds in the program name — the geometry comes from
// the laid-out image, which embeds it.
func (c *Compiled) decodePlanKey(scheme string) string {
	return "dec/" + ArtifactCacheVersion + "/" + c.contentKey() + "/" + c.Name + "/" + schemeKey(scheme)
}
