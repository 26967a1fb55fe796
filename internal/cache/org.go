package cache

import "strings"

// OrgSpec is the declarative description of one IFetch organization: the
// stage composition Sim.Run drives. An organization is data — geometry
// defaults, which optional stages exist, the Decompressor volume rules
// and the Table 1 startup-cycle matrix — so a new (encoding,
// organization) pair is one more row in orgSpecs, not an edit to the
// simulator loop.
type OrgSpec struct {
	// Name is the figure label ("Base", "Compressed", ...).
	Name string
	// LineBytes is the default cache-line size for DefaultConfig: 40 for
	// organizations whose cache holds uncompressed 40-bit ops, 32
	// otherwise.
	LineBytes int
	// HasL0 marks organizations with a post-decompressor L0 buffer (§4).
	HasL0 bool
	// NeedsROM marks organizations whose miss path reads a separately
	// encoded ROM image behind the bus (CodePack-style, §6).
	NeedsROM bool
	// Decode is the decompressor/extractor stage's volume rule.
	Decode Decompressor
	// Timing is the organization's Table 1 startup-cycle matrix.
	Timing StartupTable
}

// orgSpecs holds the organizations of Figures 11–13 plus the §6
// CodePack model, indexed by the Org constants. The StartupTable cells
// are the paper's Table 1 (see the StartupTable doc comment in
// timing.go for the two deliberate deviations from the published
// matrix).
var orgSpecs = [...]OrgSpec{
	OrgBase: {
		Name:      "Base",
		LineBytes: 40, // uncompressed cache: a 40-bit-op multiple
		Decode:    PassThrough{},
		Timing:    StartupTable{PredHit: 1, PredMiss: 1, MispredHit: 2, MispredMiss: 8},
	},
	OrgTailored: {
		Name:      "Tailored",
		LineBytes: 32,
		Decode:    PassThrough{}, // extraction cost is the +1 on the miss-path cells
		Timing:    StartupTable{PredHit: 1, PredMiss: 2, MispredHit: 2, MispredMiss: 9},
	},
	OrgCompressed: {
		Name:      "Compressed",
		LineBytes: 32,
		HasL0:     true,
		Decode:    HitDecompress{},
		Timing: StartupTable{
			PredHit: 1, PredMiss: 3, MispredHit: 3, MispredMiss: 10,
			// The hit path streams through the decompressor, so hit
			// cells scale with n too (one line's worth per cycle).
			HitScalesN: true,
			BufPredHit: 1, BufMispred: 2,
		},
	},
	OrgCodePack: {
		Name:      "CodePack",
		LineBytes: 40, // the cache is uncompressed, as in Base
		NeedsROM:  true,
		Decode:    MissDecompress{},
		// Hit path identical to Base; the miss path carries the
		// decompressor, like Tailored's extraction stage, over the
		// *compressed* line count n.
		Timing: StartupTable{PredHit: 1, PredMiss: 2, MispredHit: 2, MispredMiss: 9},
	},
}

// Spec returns the description of an organization.
func (o Org) Spec() (OrgSpec, bool) {
	if o < 0 || int(o) >= len(orgSpecs) {
		return OrgSpec{}, false
	}
	return orgSpecs[o], true
}

// Orgs returns every organization in table (Org constant) order.
func Orgs() []Org {
	out := make([]Org, len(orgSpecs))
	for i := range out {
		out[i] = Org(i)
	}
	return out
}

// OrgByName resolves an organization label case-insensitively.
func OrgByName(name string) (Org, bool) {
	for i := range orgSpecs {
		if strings.EqualFold(orgSpecs[i].Name, name) {
			return Org(i), true
		}
	}
	return 0, false
}
