package scheme

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/compress"
	"repro/internal/sched"
	"repro/internal/tailor"
)

// schemes holds the encodings in the toolchain's report order: the
// baseline, byte-based Huffman, the six stream configurations of §2.2,
// whole-op Huffman, and the tailored ISA. Stream schemes key their
// exact cut points (not their display names); Huffman schemes fold in
// the code-length bound that shapes their tables.
var schemes = builtinSchemes()

func builtinSchemes() []Scheme {
	out := []Scheme{{
		Name:        BaseName,
		ContentKey:  "base",
		SelfIndexed: true,
		Build: func(*sched.Program) (compress.Encoder, error) {
			return compress.NewBase(), nil
		},
	}, {
		Name:       "byte",
		ContentKey: fmt.Sprintf("byte/limit=%d", compress.CodeLenLimit),
		Build: func(p *sched.Program) (compress.Encoder, error) {
			return compress.NewByteHuffman(p)
		},
	}}
	for _, cfg := range compress.StreamConfigs {
		out = append(out, Scheme{
			Name:       cfg.Name,
			Group:      GroupStream,
			ContentKey: fmt.Sprintf("%s/limit=%d", cfg.Key(), compress.CodeLenLimit),
			Build: func(p *sched.Program) (compress.Encoder, error) {
				return compress.NewStreamHuffman(p, cfg)
			},
		})
	}
	return append(out, Scheme{
		Name:       "full",
		ContentKey: fmt.Sprintf("full/limit=%d", compress.CodeLenLimit),
		Build: func(p *sched.Program) (compress.Encoder, error) {
			return compress.NewFullHuffman(p)
		},
	}, Scheme{
		Name:       "tailored",
		ContentKey: "tailored",
		Build: func(p *sched.Program) (compress.Encoder, error) {
			return tailor.New(p)
		},
	})
}

// pairings holds the co-designed points: the paper's three cache-study
// organizations (Figures 11–13) and the related-work CodePack model (§6)
// with a byte-Huffman ROM behind an uncompressed cache. Every
// CacheScheme and ROMScheme names a row of schemes, and ROMScheme is
// set exactly when the organization's spec sets NeedsROM
// (TestRegistryValidation).
var pairings = []Pairing{
	{Name: "Base", Org: cache.OrgBase, CacheScheme: BaseName, Study: true},
	{Name: "Compressed", Org: cache.OrgCompressed, CacheScheme: "full", Study: true},
	{Name: "Tailored", Org: cache.OrgTailored, CacheScheme: "tailored", Study: true},
	{Name: "CodePack", Org: cache.OrgCodePack, CacheScheme: BaseName, ROMScheme: "byte"},
}
