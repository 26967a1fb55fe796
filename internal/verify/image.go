package verify

import (
	"sort"

	"repro/internal/bitio"
	"repro/internal/compress"
	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/sched"
)

// ImageOpts parameterizes the image pass.
type ImageOpts struct {
	// Order is the block placement the image was built with; nil means
	// the natural (block ID) order. When set, the order itself is
	// validated and addresses must be monotonic along it; the ATT
	// sortedness check (which only holds under natural placement) is
	// skipped.
	Order layout.Order
	// RequireATT demands a translation table (every non-base image needs
	// one for the ATB to work).
	RequireATT bool
}

// Image verifies an encoded program image and its ATT against the
// scheduled program: per-block extents within the data, no overlaps or
// gaps, op/MOP counts matching the schedule, every block decodable back
// to its scheduled operations, and the ATT sorted, consistent with the
// image and the program's original addresses, non-overlapping,
// round-trippable through its ROM wire format, and covering every
// branch target.
func Image(im *image.Image, sp *sched.Program, enc compress.Encoder, opts ImageOpts) *Report {
	stage := "image:" + im.Scheme
	rep := &Report{}

	if len(im.Blocks) != len(sp.Blocks) {
		rep.Errorf(stage, CheckImgBlockCount, NoPos,
			"image has %d blocks, program has %d", len(im.Blocks), len(sp.Blocks))
		return rep
	}
	placement := checkExtents(rep, stage, im)
	checkCounts(rep, stage, im, sp)
	checkOrder(rep, stage, im, sp, opts.Order, placement)
	checkDecode(rep, stage, im, sp, enc)
	checkATT(rep, stage, im, sp, opts)
	return rep
}

// checkExtents verifies block extents and tiling, returning the blocks
// sorted by address (the physical placement).
func checkExtents(rep *Report, stage string, im *image.Image) []int {
	placement := make([]int, len(im.Blocks))
	for i := range placement {
		placement[i] = i
	}
	sort.Slice(placement, func(x, y int) bool {
		a, b := im.Blocks[placement[x]], im.Blocks[placement[y]]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		return a.ID < b.ID
	})
	end := 0
	for _, i := range placement {
		b := im.Blocks[i]
		pos := At(b.ID)
		if b.Addr < 0 || b.Bytes < 0 || b.Addr+b.Bytes > im.CodeBytes {
			rep.Errorf(stage, CheckImgExtent, pos,
				"extent [%d,%d) outside the %d-byte image", b.Addr, b.Addr+b.Bytes, im.CodeBytes)
			continue
		}
		if b.Addr < end {
			rep.Errorf(stage, CheckImgOverlap, pos,
				"block starts at %d inside the previous block (ends %d)", b.Addr, end)
		} else if b.Addr > end {
			rep.Warnf(stage, CheckImgGap, pos,
				"%d unaccounted bytes before the block at %d", b.Addr-end, b.Addr)
		}
		if e := b.Addr + b.Bytes; e > end {
			end = e
		}
	}
	if end < im.CodeBytes {
		rep.Warnf(stage, CheckImgGap, NoPos,
			"%d unaccounted bytes at the end of the image", im.CodeBytes-end)
	}
	return placement
}

func checkCounts(rep *Report, stage string, im *image.Image, sp *sched.Program) {
	for i, b := range im.Blocks {
		sb := sp.Blocks[i]
		if b.ID != sb.ID {
			rep.Errorf(stage, CheckImgCounts, At(sb.ID),
				"image block at index %d has ID %d", i, b.ID)
		}
		if b.Ops != len(sb.Ops) || b.MOPs != len(sb.MOPs) {
			rep.Errorf(stage, CheckImgCounts, At(sb.ID),
				"image records %d ops / %d MOPs, schedule has %d / %d",
				b.Ops, b.MOPs, len(sb.Ops), len(sb.MOPs))
		}
	}
}

// checkOrder verifies the image's physical placement matches the
// declared layout order (natural when order is nil).
func checkOrder(rep *Report, stage string, im *image.Image, sp *sched.Program,
	order layout.Order, placement []int) {
	if order == nil {
		order = layout.Identity(sp)
	} else if err := order.Validate(sp); err != nil {
		rep.Errorf(stage, CheckImgOrder, NoPos, "%v", err)
		return
	}
	if len(placement) != len(order) {
		return // block-count mismatch already reported
	}
	for pi, id := range order {
		if placement[pi] != id {
			rep.Errorf(stage, CheckImgOrder, At(id),
				"position %d holds block %d, layout order expects %d",
				pi, placement[pi], id)
			return
		}
	}
}

func checkDecode(rep *Report, stage string, im *image.Image, sp *sched.Program,
	enc compress.Encoder) {
	r := bitio.NewReader(im.Data)
	for i, sb := range sp.Blocks {
		ib := im.Blocks[i]
		if err := r.SeekBit(ib.Addr * 8); err != nil {
			rep.Errorf(stage, CheckImgDecode, At(sb.ID), "%v", err)
			continue
		}
		ops, err := enc.DecodeBlock(r, len(sb.Ops))
		if err != nil {
			rep.Errorf(stage, CheckImgDecode,
				Pos{Func: -1, Block: sb.ID, Op: -1, Bit: ib.Addr * 8},
				"block does not decode: %v", err)
			continue
		}
		for j := range ops {
			if ops[j] != sb.Ops[j] {
				rep.Errorf(stage, CheckImgDecode, AtOp(sb.ID, j),
					"decoded %s, schedule has %s", ops[j].String(), sb.Ops[j].String())
				break
			}
		}
	}
}

func checkATT(rep *Report, stage string, im *image.Image, sp *sched.Program, opts ImageOpts) {
	att := im.ATT
	if att == nil {
		if opts.RequireATT {
			rep.Errorf(stage, CheckATTMissing, NoPos,
				"scheme %s image carries no address translation table", im.Scheme)
		}
		return
	}
	if len(att.Entries) != len(im.Blocks) {
		rep.Errorf(stage, CheckATTCount, NoPos,
			"ATT has %d entries for %d blocks", len(att.Entries), len(im.Blocks))
		return
	}

	orig := image.OrigAddrs(sp)
	for i, e := range att.Entries {
		if i > 0 && opts.Order == nil && e.Orig <= att.Entries[i-1].Orig {
			rep.Errorf(stage, CheckATTSorted, At(i),
				"original address %d not above predecessor's %d",
				e.Orig, att.Entries[i-1].Orig)
		}
		if e.Orig != orig[i] {
			rep.Errorf(stage, CheckATTEntry, At(i),
				"original address %d, program places the block at %d", e.Orig, orig[i])
		}
		ib := im.Blocks[i]
		if e.Enc != ib.Addr || e.Bytes != ib.Bytes || e.Ops != ib.Ops || e.MOPs != ib.MOPs {
			rep.Errorf(stage, CheckATTEntry, At(i),
				"entry (enc %d, %d B, %d ops, %d MOPs) disagrees with image block (%d, %d, %d, %d)",
				e.Enc, e.Bytes, e.Ops, e.MOPs, ib.Addr, ib.Bytes, ib.Ops, ib.MOPs)
		}
	}

	// Translated ranges must not overlap: sort by encoded address.
	byEnc := make([]int, len(att.Entries))
	for i := range byEnc {
		byEnc[i] = i
	}
	sort.Slice(byEnc, func(x, y int) bool {
		return att.Entries[byEnc[x]].Enc < att.Entries[byEnc[y]].Enc
	})
	for k := 1; k < len(byEnc); k++ {
		prev, cur := att.Entries[byEnc[k-1]], att.Entries[byEnc[k]]
		if cur.Enc < prev.Enc+prev.Bytes {
			rep.Errorf(stage, CheckATTOverlap, At(byEnc[k]),
				"translated range [%d,%d) overlaps block %d's [%d,%d)",
				cur.Enc, cur.Enc+cur.Bytes, byEnc[k-1], prev.Enc, prev.Enc+prev.Bytes)
		}
	}

	// Every branch target must have a translatable entry.
	n := len(att.Entries)
	for _, b := range sp.Blocks {
		if b.TakenTarget != ir.NoTarget && (b.TakenTarget < 0 || b.TakenTarget >= n) {
			rep.Errorf(stage, CheckATTTarget, At(b.ID),
				"taken target %d has no ATT entry (table holds %d)", b.TakenTarget, n)
		}
		if b.FallTarget != ir.NoTarget && (b.FallTarget < 0 || b.FallTarget >= n) {
			rep.Errorf(stage, CheckATTTarget, At(b.ID),
				"fall target %d has no ATT entry (table holds %d)", b.FallTarget, n)
		}
		if b.EndsInCall() && b.Callee >= 0 && b.Callee < len(sp.FuncEntries) {
			if e := sp.FuncEntries[b.Callee]; e < 0 || e >= n {
				rep.Errorf(stage, CheckATTTarget, At(b.ID),
					"callee entry %d has no ATT entry (table holds %d)", e, n)
			}
		}
	}

	// The table must survive its ROM wire format.
	raw := image.SerializeATT(att.Entries)
	back, err := image.ParseATT(raw, len(att.Entries))
	if err != nil {
		rep.Errorf(stage, CheckATTRoundTrip, NoPos, "wire format does not parse back: %v", err)
		return
	}
	for i := range back {
		if back[i] != att.Entries[i] {
			rep.Errorf(stage, CheckATTRoundTrip, At(i),
				"entry changed across serialize/parse: %+v != %+v", back[i], att.Entries[i])
			return
		}
	}
}
