package core

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/declogic"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/scheme"
	"repro/internal/stats"
)

// RelatedRow is one benchmark × approach entry in the related-work
// comparison of §6: this repository's two schemes next to models of the
// prior approaches the paper discusses.
type RelatedRow struct {
	Benchmark string
	Approach  string
	ROMRatio  float64 // total ROM (code + ATT where applicable) / base code
	IPC       float64 // 0 for static-only models
	FlipRatio float64 // bus bit flips / base; 0 for static-only models
}

// ThumbOpBits and ThumbOpInflation model a Thumb/MIPS16-style subset ISA
// (§6): 24-bit operations (a compact subset re-encoding of the 40-bit
// ISA, keeping the paper's 3-operand predication) at the cost of more
// operations — the paper's "subset ISAs reduce flexibility, which
// ultimately results in increased op count". The inflation factor follows
// the ~15–20% op-count growth reported for Thumb-class ISAs.
const (
	ThumbOpBits      = 24
	ThumbOpInflation = 1.18
)

// approachLabel names a pairing in the comparison: the organization
// label, annotated with the encoding when it is not implied by the
// label itself (CodePack's ROM scheme, Compressed's cache scheme).
func approachLabel(p scheme.Pairing) string {
	if p.ROMScheme != "" {
		return fmt.Sprintf("%s(%s)", p.Name, p.ROMScheme)
	}
	if p.CacheScheme != scheme.BaseName && !strings.EqualFold(p.CacheScheme, p.Name) {
		return fmt.Sprintf("%s(%s)", p.Name, p.CacheScheme)
	}
	return p.Name
}

// romImage returns the image whose bytes sit in ROM for a pairing: the
// behind-the-bus ROM image when the organization keeps one, the cache's
// image otherwise.
func (c *Compiled) romImage(p scheme.Pairing) (*image.Image, error) {
	if p.ROMScheme != "" {
		return c.Image(p.ROMScheme)
	}
	return c.Image(p.CacheScheme)
}

// RelatedWork compares, per benchmark, every registered pairing — the
// paper's Base/Compressed/Tailored organizations and the CodePack-style
// miss-path decompressor (byte-scheme ROM, uncompressed cache) — plus a
// static Thumb-style subset-ISA size model.
func (s *Suite) RelatedWork() ([]RelatedRow, error) {
	var rows []RelatedRow
	for _, name := range s.opt.benchmarks() {
		c, err := s.Compiled(name)
		if err != nil {
			return nil, err
		}
		base, err := c.Image(scheme.BaseName)
		if err != nil {
			return nil, err
		}
		basePair, ok := scheme.PairingByName("Base")
		if !ok {
			return nil, fmt.Errorf("core: no Base pairing registered")
		}
		pairings := scheme.Pairings()
		results, err := s.replayPairings(c, pairings)
		if err != nil {
			return nil, err
		}
		var baseRes cache.Result
		for i, p := range pairings {
			if p.Name == basePair.Name {
				baseRes = results[i]
			}
		}
		for i, p := range pairings {
			row := RelatedRow{Benchmark: name, Approach: approachLabel(p), ROMRatio: 1,
				IPC: results[i].IPC()}
			if p.Name != basePair.Name {
				rom, err := c.romImage(p)
				if err != nil {
					return nil, err
				}
				row.ROMRatio = float64(rom.TotalBytes()) / float64(base.CodeBytes)
			}
			if baseRes.BitFlips > 0 {
				row.FlipRatio = float64(results[i].BitFlips) / float64(baseRes.BitFlips)
			}
			rows = append(rows, row)
		}

		// Related work: Thumb/MIPS16-style subset ISA, static size model
		// only (no IFetch advantage: the cache holds the subset encoding
		// but executes ~18% more ops).
		thumb := float64(ThumbOpBits) / float64(isa.OpBits) * ThumbOpInflation
		rows = append(rows, RelatedRow{Benchmark: name, Approach: "Thumb-style", ROMRatio: thumb})
	}
	return rows, nil
}

// RelatedWorkTable renders the comparison.
func RelatedWorkTable(rows []RelatedRow) *stats.Table {
	t := &stats.Table{
		Title: "Related-work comparison (§6): ROM size, delivered IPC and bus bit flips vs Base",
		Cols:  []string{"benchmark", "approach", "ROM/base", "IPC", "flips/base"},
	}
	for _, r := range rows {
		ipc, fl := "-", "-"
		if r.IPC > 0 {
			ipc = stats.F(r.IPC, 3)
			fl = stats.Pct(r.FlipRatio)
		}
		t.AddRow(r.Benchmark, r.Approach, stats.Pct(r.ROMRatio), ipc, fl)
	}
	return t
}

// DictComparison reports the beyond-Huffman dictionary scheme (§7 future
// work) against the full Huffman scheme per benchmark: ratio and decoder
// storage.
type DictComparison struct {
	Benchmark    string
	DictRatio    float64
	FullRatio    float64
	DictRAMBits  int
	FullLog10T   float64
	DictEntries  int
	DictIndexLen int
}

// DictionarySweep measures the dictionary scheme at a given index width,
// fanning out across benchmarks on the driver's pool.
func (s *Suite) DictionarySweep(indexBits int) ([]DictComparison, error) {
	return forEachBenchmark(s, func(name string) (DictComparison, error) {
		c, err := s.Compiled(name)
		if err != nil {
			return DictComparison{}, err
		}
		base, err := c.Image("base")
		if err != nil {
			return DictComparison{}, err
		}
		full, err := c.Image("full")
		if err != nil {
			return DictComparison{}, err
		}
		d, dim, err := c.Dictionary(indexBits)
		if err != nil {
			return DictComparison{}, err
		}
		fullEnc, err := c.Encoder("full")
		if err != nil {
			return DictComparison{}, err
		}
		var fullT float64
		if tabs := fullEnc.Tables(); len(tabs) > 0 {
			fullT = declogic.ForTables("full", tabs).Log10Transistors()
		}
		return DictComparison{
			Benchmark:    name,
			DictRatio:    dim.Ratio(base),
			FullRatio:    full.Ratio(base),
			DictRAMBits:  d.DecoderRAMBits(),
			FullLog10T:   fullT,
			DictEntries:  d.Entries(),
			DictIndexLen: indexBits,
		}, nil
	})
}
