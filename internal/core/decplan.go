package core

import "repro/internal/compress"

// DecodePlan is the prebuilt batch-decode artifact for one (program,
// scheme) pair: the scheme's lane kernel (its memoized decode tables)
// plus the image's block geometry flattened into the parallel address
// and count arrays the kernel's batch face consumes. Building a plan is
// pure table-and-geometry work — constructing it once per scheme ×
// benchmark and caching it in the artifact store is what keeps table
// construction out of every decode request and out of every timed
// throughput region (see MeasureDecodeThroughput).
//
// A plan is immutable after build and safe for concurrent use: decoding
// through it touches only per-call state.
type DecodePlan struct {
	Scheme string
	Batch  compress.BatchDecoder
	Data   []byte // the image's code bytes the geometry indexes
	Addrs  []int  // byte address of each block's first codeword
	Counts []int  // source operations per block
	Syms   int    // total Huffman symbols across all blocks

	// TableEntries is the lookup-table footprint of the kernel schedule
	// in 4-byte entries — the size of the memoized sub-artifact this
	// plan shares through the store.
	TableEntries int
}

// Blocks returns the number of blocks the plan decodes.
func (p *DecodePlan) Blocks() int { return len(p.Addrs) }

// DecodeSymbols decodes every block of data in turn through the lane
// kernel's block decoder, discarding symbols — the throughput shape. A
// nil data decodes the plan's own image. It returns symbols decoded and
// code bits consumed, with the reference decoder's exact terminal error
// on a malformed stream.
func (p *DecodePlan) DecodeSymbols(data []byte) (int64, int64, error) {
	if data == nil {
		data = p.Data
	}
	return p.Batch.DecodeRun(data, p.Addrs, p.Counts)
}

// buildDecodePlan assembles a plan from a built encoder and image.
func buildDecodePlan(scheme string, bd compress.BatchDecoder, data []byte, addrs, counts []int) *DecodePlan {
	p := &DecodePlan{
		Scheme:       scheme,
		Batch:        bd,
		Data:         data,
		Addrs:        addrs,
		Counts:       counts,
		TableEntries: bd.Kernel().TableEntries(),
	}
	for _, n := range counts {
		p.Syms += bd.BatchSymbols(n)
	}
	return p
}

// DecodePlan builds (and caches) the batch-decode plan for a scheme.
// Schemes without a Huffman batch face (base, tailored, dict) return
// (nil, nil) — there is nothing to plan. Safe for concurrent use; the
// plan is content-cached under decodePlanKey and timed under the
// "decplan.<scheme>" stage, so a service answering many decode requests
// for one image builds its tables and geometry exactly once.
func (c *Compiled) DecodePlan(scheme string) (*DecodePlan, error) {
	return memoAs(c.drv, c.decodePlanKey(scheme), func() (*DecodePlan, error) {
		enc, err := c.Encoder(scheme)
		if err != nil {
			return nil, err
		}
		bd, ok := enc.(compress.BatchDecoder)
		if !ok {
			return nil, nil
		}
		im, err := c.Image(scheme)
		if err != nil {
			return nil, err
		}
		return timed(c.drv, "decplan."+scheme, func() (*DecodePlan, error) {
			addrs := make([]int, len(im.Blocks))
			counts := make([]int, len(im.Blocks))
			for i := range im.Blocks {
				addrs[i] = im.Blocks[i].Addr
				counts[i] = im.Blocks[i].Ops
			}
			return buildDecodePlan(scheme, bd, im.Data, addrs, counts), nil
		})
	})
}
