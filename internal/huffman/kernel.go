package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/bitio"
)

// MaxLanes is the width of the lane-parallel decode kernel: how many
// independent symbol streams one LaneDecoder.Run interleaves. Four
// lanes is the vectorized-VByte sweet spot on current cores — enough
// independent table-load chains to cover L1 latency without spilling
// the per-lane cursor state out of registers.
const MaxLanes = 4

// LaneDecoder is the batched kernel beneath FastDecoder: it decodes up
// to MaxLanes independent streams in one software-pipelined loop, one
// symbol per lane per rotation, so the table lookups and word refills
// of different lanes overlap in the core's out-of-order window instead
// of serializing behind one stream's loads.
//
// The schedule is the kernel's second axis: sched lists the fast tables
// cycled per symbol within each lane. A whole-op scheme passes one
// table; the stream schemes pass their per-segment tables in segment
// order, because a stream-encoded operation is segment codewords
// interleaved in one bit stream (seg0 op0, seg1 op0, ..., seg0 op1) —
// the segments share a cursor and alternate tables, while true cursor
// parallelism comes from lanes over byte-aligned blocks.
//
// Symbols, consumed-bit offsets, and both error terminals are
// bit-identical to FastDecoder (and so to the reference Decoder): the
// equivalence is enforced per stream by the differential harness and
// FuzzLaneDecodeEquivalence.
type LaneDecoder struct {
	sched []*FastDecoder
	tabs  []laneTab  // flattened schedule for the register engine
	fused []fusedTab // pairwise-fused schedule (see fused.go); nil if unfusable
	wide  bool       // any scheduled table's maxLen exceeds the 56-bit window
}

// laneTab is one schedule entry flattened for the register engine: the
// table arrays and root width copied into a contiguous descriptor, so
// the per-symbol schedule lookup is a single indexed load instead of a
// pointer chase through sched[t] and the FastDecoder behind it.
type laneTab struct {
	root     []uint32
	sub      []uint32
	syms     []uint64
	rootBits int
}

// NewLaneDecoder builds a kernel over the per-symbol table schedule.
// At least one table is required; passing a table whose longest code
// exceeds the in-register window (56 bits) selects a safe per-lane
// fallback path for the whole kernel.
func NewLaneDecoder(sched ...*FastDecoder) *LaneDecoder {
	if len(sched) == 0 {
		panic("huffman: lane decoder needs at least one table")
	}
	k := &LaneDecoder{
		sched: append([]*FastDecoder(nil), sched...),
		tabs:  make([]laneTab, len(sched)),
	}
	for i, fd := range sched {
		if fd == nil {
			panic(fmt.Sprintf("huffman: lane decoder schedule entry %d is nil", i))
		}
		if fd.maxLen > 56 {
			k.wide = true
		}
		k.tabs[i] = laneTab{root: fd.root, sub: fd.sub, syms: fd.syms, rootBits: fd.rootBits}
	}
	if !k.wide {
		k.fused = fuseSchedule(k.sched)
	}
	return k
}

// Tables returns the number of tables in the per-symbol schedule.
func (k *LaneDecoder) Tables() int { return len(k.sched) }

// Wide reports whether any scheduled table's longest code exceeds the
// kernel's 56-bit in-register window, forcing every run onto the
// per-lane sequential fallback.
func (k *LaneDecoder) Wide() bool { return k.wide }

// TableEntries returns the total lookup-table footprint of the schedule
// in 4-byte entries — the artifact the decode-plan cache memoizes.
func (k *LaneDecoder) TableEntries() int {
	n := 0
	for _, fd := range k.sched {
		n += fd.TableEntries()
	}
	return n
}

// Lane is one stream's decode state: an independent bit cursor, an
// output slot, and the lane's phase in the table schedule. A Lane is
// plain value state — callers keep a [MaxLanes]Lane array alive and
// Init it per stream, so steady-state decoding allocates nothing.
//
// A lane with a nil output slot and a nonzero want discards: it decodes
// want symbols, folding them into an xor sink instead of storing them.
// Discard lanes do the full per-symbol work including the symbol-table
// load, so the decode cannot be optimized into a skip.
//
// Lanes are the state of Run's rotation: the incremental face and the
// grouped engine DecodeBlocks falls back to. DecodeBlocks' fast engine
// keeps its four cursors in locals and never builds a Lane.
type Lane struct {
	cur  bitio.Cursor
	out  []uint64 // nil in discard mode
	n    int
	want int    // symbols to decode; == len(out) when collecting
	ti   int    // next schedule index
	sink uint64 // xor of discarded symbols; keeps their loads live
	err  error
}

// Init points the lane at an absolute bit offset of data, resets its
// schedule phase, and arms it to decode len(out) symbols into out.
func (l *Lane) Init(data []byte, bit int, out []uint64) error {
	l.out, l.n, l.want, l.ti, l.err = out, 0, len(out), 0, nil
	return l.cur.Init(data, bit)
}

// Decoded returns how many symbols the lane has produced into its
// current output slot.
func (l *Lane) Decoded() int { return l.n }

// Err returns the lane's terminal error, if decoding it failed.
func (l *Lane) Err() error { return l.err }

// Done reports that the lane needs no more work: quota met or errored.
func (l *Lane) Done() bool { return l.err != nil || l.n == l.want }

// Offset returns the absolute bit offset of the lane's next unconsumed
// bit — after a full decode, the end of the stream's last codeword,
// identical to Reader.Offset on the per-symbol path.
func (l *Lane) Offset() int { return l.cur.Offset() }

// badLanes keeps the panic (and its fmt call) out of Run's annotated
// body: the kernel loop must stay allocation-free.
func badLanes(n int) {
	panic(fmt.Sprintf("huffman: %d lanes exceed MaxLanes (%d)", n, MaxLanes))
}

// Run decodes every lane to completion: each active lane fills its
// output slot or hits a terminal error (recorded on the lane; the
// other lanes keep decoding). len(lanes) must be in [0, MaxLanes].
//
// The loop rotates over the active lanes decoding one symbol each, so
// consecutive iterations touch independent cursors: lane 1's root-table
// load issues while lane 0's refill is still in flight. Finished lanes
// are swap-removed from the rotation, degrading gracefully to a
// single-lane loop for a lone tail.
//
// Its production callers are decodeBlocksSlow (corrupt images, wide
// tables, ErrShortOutput) and the Huffman schemes' block decoder
// (compress's DecodeBlock, one lane over a whole block, which
// /v1/decode runs on every block); intact batches decode in
// decodeBlocksFast.
//
//tepic:hotpath
func (k *LaneDecoder) Run(lanes []Lane) {
	if len(lanes) > MaxLanes {
		badLanes(len(lanes))
	}
	if k.wide {
		k.runWide(lanes)
		return
	}
	var act [MaxLanes]int8
	na := 0
	for i := range lanes {
		if !lanes[i].Done() {
			act[na] = int8(i)
			na++
		}
	}
	nt := len(k.sched)
	for na > 0 {
		for j := 0; j < na; {
			l := &lanes[act[j]]
			fd := k.sched[l.ti]
			c := &l.cur
			if c.Buffered() < 56 {
				c.Refill()
			}
			e := fd.root[c.Peek(fd.rootBits)]
			if e&fastSubFlag != 0 {
				bits := int(e & fastLenMask)
				w := c.Peek(fd.rootBits + bits)
				e = fd.sub[int(e>>6&(fastMaxSyms-1))+int(w&(1<<uint(bits)-1))]
			}
			cl := int(e & fastLenMask)
			if cl == 0 || cl > c.Buffered() {
				l.err = laneFail(c, fd)
				na--
				act[j] = act[na]
				continue
			}
			c.Skip(cl)
			s := fd.syms[e>>6]
			if l.out != nil {
				l.out[l.n] = s
			} else {
				l.sink ^= s
			}
			l.n++
			l.ti++
			if l.ti == nt {
				l.ti = 0
			}
			if l.n == l.want {
				na--
				act[j] = act[na]
				continue
			}
			j++
		}
	}
}

// laneFail mirrors FastDecoder.fail on a cursor, consuming the same
// bits the reference decoder's terminals would: everything that remains
// when the stream ends mid-codeword, exactly maxLen bits when they
// match no codeword. Reached only after a Refill, so a non-truncated
// failure always has maxLen bits buffered (maxLen <= 56 on this path).
func laneFail(c *bitio.Cursor, fd *FastDecoder) error {
	start := c.Offset()
	if rem := c.Remaining(); rem < fd.maxLen {
		c.SkipAll()
		return errTruncated(start)
	}
	code := c.Peek(fd.maxLen)
	c.Skip(fd.maxLen)
	return errInvalid(code, start)
}

// ErrShortOutput reports a DecodeBlocks output buffer smaller than the
// batch's total symbol count.
var ErrShortOutput = errors.New("huffman: batch output buffer too small")

// DecodeBlocks is the allocation-free batch engine over the kernel. It
// decodes the blocks described by parallel slices addrs (byte address
// of each block's first codeword in data) and counts (source operations
// per block), in groups of up to MaxLanes interleaved lanes — blocks
// are the lane axis; every block starts byte-aligned and decodes
// independently. A block's symbol count is the caller's affine map
// need = (n*mul + add) / div, passed as constants so the hot loop needs
// no per-scheme closure (closures are banned from the hot path and
// would allocate per call):
//
//	whole-op coding:  (n*1 + 0) / 1      one symbol per op
//	per-segment:      (n*nsegs + 0) / 1  one symbol per segment per op
//	per-byte:         (n*opbits + 7) / 8 one symbol per packed byte
//
// When out is non-nil the decoded symbols land in out, blocks in order;
// a nil out runs the lanes in discard mode (full decode work, symbols
// folded into the lane sink), the throughput-measurement shape. It
// returns the symbols decoded and the total code bits consumed, both
// summed in block order through the first failing block (whose partial
// symbols count), then that block's terminal error. Steady-state calls
// allocate nothing on either path.
//
// Two engines sit behind this face. The happy path is
// decodeBlocksFast: four register-resident cursors over a dynamic
// block queue — a lane finishing its block takes the next one without
// ever spilling its accumulator, so short blocks (the common case:
// basic blocks run a handful of operations) still amortize into one
// long software-pipelined loop. Any decode failure abandons the fast
// pass and re-decodes everything through the grouped lane path, whose
// block-ordered scan produces the exact terminal error and the exact
// partial totals the contract promises; corrupt images pay a second
// pass, intact ones never do.
//
//tepic:hotpath
func (k *LaneDecoder) DecodeBlocks(data []byte, addrs, counts []int, mul, add, div int, out []uint64) (int64, int64, error) {
	if !k.wide && len(addrs) > 0 {
		fit := true
		if out != nil {
			total := 0
			for i := range counts {
				total += (counts[i]*mul + add) / div
			}
			fit = total <= len(out)
		}
		if fit {
			if syms, bits, _, ok := k.decodeBlocksFast(data, addrs, counts, mul, add, div, out); ok {
				return syms, bits, nil
			}
		}
	}
	return k.decodeBlocksSlow(data, addrs, counts, mul, add, div, out)
}

// decodeBlocksSlow is the grouped lane engine behind DecodeBlocks: up
// to MaxLanes blocks armed per group, Run to completion, totals and the
// first terminal collected in block order. It is the path with the
// exact documented error semantics — the fast engine defers to it — and
// the only one taken for wide tables or a short output buffer.
//
// The lane state is a function-local array wired by direct field
// assignment — the reason this engine lives in this package: routing
// the wiring through the Lane methods reads, to escape analysis, as a
// store through a pointer deref, which it conservatively treats as a
// heap store. For the same reason no function-local buffer may ever be
// sliced into a lane: the terminal error is read back out of the lane
// array and returned, and the field-insensitive escape graph would then
// force any such buffer to the heap on every call — which is why
// discard mode is a kernel mode and not a decode into stack scratch.
//
//tepic:hotpath
func (k *LaneDecoder) decodeBlocksSlow(data []byte, addrs, counts []int, mul, add, div int, out []uint64) (int64, int64, error) {
	var lanes [MaxLanes]Lane
	syms, bits := int64(0), int64(0)
	symOff := 0
	for base := 0; base < len(addrs); base += MaxLanes {
		nl := len(addrs) - base
		if nl > MaxLanes {
			nl = MaxLanes
		}
		for i := 0; i < nl; i++ {
			need := (counts[base+i]*mul + add) / div
			if out == nil {
				lanes[i].out = nil
			} else {
				if symOff+need > len(out) {
					return syms, bits, ErrShortOutput
				}
				lanes[i].out = out[symOff : symOff+need]
				symOff += need
			}
			lanes[i].want = need
			lanes[i].n = 0
			lanes[i].ti = 0
			lanes[i].err = nil
			if err := lanes[i].cur.Init(data, addrs[base+i]*8); err != nil {
				return syms, bits, err
			}
		}
		k.Run(lanes[:nl])
		// Collect in block order: symbol and consumed-bit totals
		// accumulate through the first failing block (including its
		// partial count), then its terminal error returns — so the
		// error reported is deterministic regardless of lane
		// scheduling.
		for i := 0; i < nl; i++ {
			syms += int64(lanes[i].n)
			bits += int64(lanes[i].cur.Offset() - addrs[base+i]*8)
			if err := lanes[i].err; err != nil {
				return syms, bits, err
			}
		}
	}
	return syms, bits, nil
}

// decodeBlocksFast is the register-resident engine behind DecodeBlocks:
// four lanes, each a function-local Giesen cursor (accumulator, valid
// bit count, byte position — the absolute bit position is implicit as
// 8*y - n, the same invariant bitio.Cursor keeps), pulling blocks off a
// shared queue. Decoding is organized in epochs: at an epoch boundary
// every lane that completed its block is accounted and re-armed with
// the next queued block (so the pipeline never drains between blocks),
// then the inner loop runs the minimum of the active lanes' remaining
// symbol counts in unconditional rounds — one symbol per active lane
// per round, with no quota or queue checks anywhere in the hot body.
//
// Three inner-loop bodies, picked once per call. The two specialized
// ones run only in discard mode (out == nil: the throughput
// measurement and the decode audit), where each lane folds
// into its own sink, keeping the four symbol loads independent and the
// output windows out of the loop:
//
//   - Single-table schedules (the whole-op and per-byte schemes) hoist
//     the table's root, overflow and symbol arrays into locals; a
//     symbol costs one root load (plus the rare overflow hop) and one
//     symbol load.
//   - Fused op-aligned schedules (the stream schemes, where every
//     block's symbol count is count*nt and the schedule fuses pairwise,
//     fused.go) keep all lanes at the same schedule phase forever:
//     wants and hence epoch lengths stay multiples of nt, so phases
//     start at 0 each epoch and advance in lockstep. The loop iterates
//     whole ops, hoisting each fused phase's table once for all four
//     lanes, and one lookup emits two symbols.
//   - Everything else — collect mode, unfusable or non-op-aligned
//     schedules — goes through the flattened tabs descriptors with a
//     per-lane phase, one indexed load per symbol and a per-symbol
//     output-mode branch. Further specializations (an unfused lockstep
//     body, collect-mode copies of the two above) measured at or under
//     1.1x over this body or ran on no workload, so none is kept.
//
// Output offsets are assigned at queue order, so out's layout is
// identical to the grouped engine's regardless of which lane decodes
// which block.
//
// Near the end of data the refill degrades byte-at-a-time (refillTail's
// idiom), after which a codeword longer than the remaining bits — or
// any unresolvable codeword, or an out-of-range block address — aborts
// the whole pass with ok == false and no totals: the caller re-decodes
// through the grouped engine for exact terminal semantics. The returned
// sink is the xor fold of discard-mode symbols; flowing it out of the
// (never inlined) function keeps their table loads live — it is
// otherwise meaningless and callers discard it.
//
//tepic:hotpath
func (k *LaneDecoder) decodeBlocksFast(data []byte, addrs, counts []int, mul, add, div int, out []uint64) (syms, bits int64, sink uint64, ok bool) {
	tabs := k.tabs
	fused := k.fused
	nt := len(tabs)
	// Op-aligned: every want is count*nt, so lane phases stay in lockstep
	// (see the body notes above).
	opAligned := nt > 1 && mul == nt && add == 0 && div == 1
	next := 0 // next queue index
	symOff := 0
	var sk0, sk1, sk2, sk3 uint64

	// Per-lane state. The initial act/m == w == 0 state reads as "block
	// complete", so the first epoch boundary arms the lanes off the queue.
	var b0, b1, b2, b3 uint64 // accumulators, next bits at the top
	var n0, n1, n2, n3 int    // valid accumulator bits
	var y0, y1, y2, y3 int    // next byte position
	var a0, a1, a2, a3 int    // current block's start bit
	var m0, m1, m2, m3 int    // symbols decoded in current block
	var w0, w1, w2, w3 int    // symbols wanted in current block
	var t0, t1, t2, t3 int    // schedule phase (generic variant only)
	var o0, o1, o2, o3 []uint64
	act0, act1, act2, act3 := true, true, true, true

	for {
		// Epoch boundary: account and re-arm completed lanes (the loop
		// form swallows zero-symbol blocks), deactivate on a dry queue.
		for act0 && m0 == w0 {
			syms += int64(m0)
			bits += int64(8*y0 - n0 - a0)
			if next < len(addrs) {
				w0 = (counts[next]*mul + add) / div
				if uint(addrs[next]) > uint(len(data)) || w0 < 0 {
					return 0, 0, 0, false
				}
				y0 = addrs[next]
				a0 = y0 * 8
				if out != nil {
					o0 = out[symOff : symOff+w0]
					symOff += w0
				}
				b0, n0, m0, t0 = 0, 0, 0, 0
				next++
			} else {
				act0 = false
			}
		}
		for act1 && m1 == w1 {
			syms += int64(m1)
			bits += int64(8*y1 - n1 - a1)
			if next < len(addrs) {
				w1 = (counts[next]*mul + add) / div
				if uint(addrs[next]) > uint(len(data)) || w1 < 0 {
					return 0, 0, 0, false
				}
				y1 = addrs[next]
				a1 = y1 * 8
				if out != nil {
					o1 = out[symOff : symOff+w1]
					symOff += w1
				}
				b1, n1, m1, t1 = 0, 0, 0, 0
				next++
			} else {
				act1 = false
			}
		}
		for act2 && m2 == w2 {
			syms += int64(m2)
			bits += int64(8*y2 - n2 - a2)
			if next < len(addrs) {
				w2 = (counts[next]*mul + add) / div
				if uint(addrs[next]) > uint(len(data)) || w2 < 0 {
					return 0, 0, 0, false
				}
				y2 = addrs[next]
				a2 = y2 * 8
				if out != nil {
					o2 = out[symOff : symOff+w2]
					symOff += w2
				}
				b2, n2, m2, t2 = 0, 0, 0, 0
				next++
			} else {
				act2 = false
			}
		}
		for act3 && m3 == w3 {
			syms += int64(m3)
			bits += int64(8*y3 - n3 - a3)
			if next < len(addrs) {
				w3 = (counts[next]*mul + add) / div
				if uint(addrs[next]) > uint(len(data)) || w3 < 0 {
					return 0, 0, 0, false
				}
				y3 = addrs[next]
				a3 = y3 * 8
				if out != nil {
					o3 = out[symOff : symOff+w3]
					symOff += w3
				}
				b3, n3, m3, t3 = 0, 0, 0, 0
				next++
			} else {
				act3 = false
			}
		}

		// The epoch length: the smallest remaining quota among active
		// lanes. Boundary processing guarantees every active lane has at
		// least one symbol left.
		rounds := -1
		if act0 && (rounds < 0 || w0-m0 < rounds) {
			rounds = w0 - m0
		}
		if act1 && (rounds < 0 || w1-m1 < rounds) {
			rounds = w1 - m1
		}
		if act2 && (rounds < 0 || w2-m2 < rounds) {
			rounds = w2 - m2
		}
		if act3 && (rounds < 0 || w3-m3 < rounds) {
			rounds = w3 - m3
		}
		if rounds < 0 {
			break
		}
		// Collect mode: each lane's epoch window, so the inner loops
		// index by round. In discard mode the o slices stay nil while
		// m advances, so they must not be resliced.
		var oo0, oo1, oo2, oo3 []uint64
		if out != nil {
			oo0, oo1, oo2, oo3 = o0[m0:], o1[m1:], o2[m2:], o3[m3:]
		}

		if nt == 1 && out == nil {
			root, subt, symt := tabs[0].root, tabs[0].sub, tabs[0].syms
			rb := tabs[0].rootBits
			rootMask := uint64(len(root) - 1)
			for r := 0; r < rounds; r++ {
				if act0 {
					if n0 < 56 {
						if y0+8 <= len(data) {
							b0 |= binary.BigEndian.Uint64(data[y0:]) >> uint(n0)
							y0 += (63 - n0) >> 3
							n0 |= 56
						} else {
							for y0 < len(data) && n0 <= 56 {
								b0 |= uint64(data[y0]) << uint(56-n0)
								n0 += 8
								y0++
							}
						}
					}
					e := root[b0>>uint(64-rb)&rootMask]
					if e&fastSubFlag != 0 {
						sb := int(e & fastLenMask)
						w := b0 >> uint(64-rb-sb)
						e = subt[int(e>>6&(fastMaxSyms-1))+int(w&(1<<uint(sb)-1))]
					}
					cl := int(e & fastLenMask)
					if cl == 0 || cl > n0 {
						return 0, 0, 0, false
					}
					b0 <<= uint(cl)
					n0 -= cl
					sk0 ^= symt[e>>6]
				}
				if act1 {
					if n1 < 56 {
						if y1+8 <= len(data) {
							b1 |= binary.BigEndian.Uint64(data[y1:]) >> uint(n1)
							y1 += (63 - n1) >> 3
							n1 |= 56
						} else {
							for y1 < len(data) && n1 <= 56 {
								b1 |= uint64(data[y1]) << uint(56-n1)
								n1 += 8
								y1++
							}
						}
					}
					e := root[b1>>uint(64-rb)&rootMask]
					if e&fastSubFlag != 0 {
						sb := int(e & fastLenMask)
						w := b1 >> uint(64-rb-sb)
						e = subt[int(e>>6&(fastMaxSyms-1))+int(w&(1<<uint(sb)-1))]
					}
					cl := int(e & fastLenMask)
					if cl == 0 || cl > n1 {
						return 0, 0, 0, false
					}
					b1 <<= uint(cl)
					n1 -= cl
					sk1 ^= symt[e>>6]
				}
				if act2 {
					if n2 < 56 {
						if y2+8 <= len(data) {
							b2 |= binary.BigEndian.Uint64(data[y2:]) >> uint(n2)
							y2 += (63 - n2) >> 3
							n2 |= 56
						} else {
							for y2 < len(data) && n2 <= 56 {
								b2 |= uint64(data[y2]) << uint(56-n2)
								n2 += 8
								y2++
							}
						}
					}
					e := root[b2>>uint(64-rb)&rootMask]
					if e&fastSubFlag != 0 {
						sb := int(e & fastLenMask)
						w := b2 >> uint(64-rb-sb)
						e = subt[int(e>>6&(fastMaxSyms-1))+int(w&(1<<uint(sb)-1))]
					}
					cl := int(e & fastLenMask)
					if cl == 0 || cl > n2 {
						return 0, 0, 0, false
					}
					b2 <<= uint(cl)
					n2 -= cl
					sk2 ^= symt[e>>6]
				}
				if act3 {
					if n3 < 56 {
						if y3+8 <= len(data) {
							b3 |= binary.BigEndian.Uint64(data[y3:]) >> uint(n3)
							y3 += (63 - n3) >> 3
							n3 |= 56
						} else {
							for y3 < len(data) && n3 <= 56 {
								b3 |= uint64(data[y3]) << uint(56-n3)
								n3 += 8
								y3++
							}
						}
					}
					e := root[b3>>uint(64-rb)&rootMask]
					if e&fastSubFlag != 0 {
						sb := int(e & fastLenMask)
						w := b3 >> uint(64-rb-sb)
						e = subt[int(e>>6&(fastMaxSyms-1))+int(w&(1<<uint(sb)-1))]
					}
					cl := int(e & fastLenMask)
					if cl == 0 || cl > n3 {
						return 0, 0, 0, false
					}
					b3 <<= uint(cl)
					n3 -= cl
					sk3 ^= symt[e>>6]
				}
			}
		} else if opAligned && fused != nil && out == nil {
			nf := len(fused)
			for r := 0; r < rounds; {
				for t := 0; t < nf; t++ {
					root, subt := fused[t].root, fused[t].sub
					symA, symB := fused[t].symsA, fused[t].symsB
					rb := fused[t].rootBits
					rootMask := uint64(len(root) - 1)
					if act0 {
						if n0 < 56 {
							if y0+8 <= len(data) {
								b0 |= binary.BigEndian.Uint64(data[y0:]) >> uint(n0)
								y0 += (63 - n0) >> 3
								n0 |= 56
							} else {
								for y0 < len(data) && n0 <= 56 {
									b0 |= uint64(data[y0]) << uint(56-n0)
									n0 += 8
									y0++
								}
							}
						}
						e := root[b0>>uint(64-rb)&rootMask]
						if e&fastSubFlag != 0 {
							sb := int(e & fastLenMask)
							w := b0 >> uint(64-rb-sb)
							e = subt[int(e>>6&(fastMaxSyms-1))+int(w&(1<<uint(sb)-1))]
						}
						cl := int(e & fastLenMask)
						if cl == 0 || cl > n0 {
							return 0, 0, 0, false
						}
						b0 <<= uint(cl)
						n0 -= cl
						pi := e >> 6
						sk0 ^= symA[pi] ^ symB[pi]
					}
					if act1 {
						if n1 < 56 {
							if y1+8 <= len(data) {
								b1 |= binary.BigEndian.Uint64(data[y1:]) >> uint(n1)
								y1 += (63 - n1) >> 3
								n1 |= 56
							} else {
								for y1 < len(data) && n1 <= 56 {
									b1 |= uint64(data[y1]) << uint(56-n1)
									n1 += 8
									y1++
								}
							}
						}
						e := root[b1>>uint(64-rb)&rootMask]
						if e&fastSubFlag != 0 {
							sb := int(e & fastLenMask)
							w := b1 >> uint(64-rb-sb)
							e = subt[int(e>>6&(fastMaxSyms-1))+int(w&(1<<uint(sb)-1))]
						}
						cl := int(e & fastLenMask)
						if cl == 0 || cl > n1 {
							return 0, 0, 0, false
						}
						b1 <<= uint(cl)
						n1 -= cl
						pi := e >> 6
						sk1 ^= symA[pi] ^ symB[pi]
					}
					if act2 {
						if n2 < 56 {
							if y2+8 <= len(data) {
								b2 |= binary.BigEndian.Uint64(data[y2:]) >> uint(n2)
								y2 += (63 - n2) >> 3
								n2 |= 56
							} else {
								for y2 < len(data) && n2 <= 56 {
									b2 |= uint64(data[y2]) << uint(56-n2)
									n2 += 8
									y2++
								}
							}
						}
						e := root[b2>>uint(64-rb)&rootMask]
						if e&fastSubFlag != 0 {
							sb := int(e & fastLenMask)
							w := b2 >> uint(64-rb-sb)
							e = subt[int(e>>6&(fastMaxSyms-1))+int(w&(1<<uint(sb)-1))]
						}
						cl := int(e & fastLenMask)
						if cl == 0 || cl > n2 {
							return 0, 0, 0, false
						}
						b2 <<= uint(cl)
						n2 -= cl
						pi := e >> 6
						sk2 ^= symA[pi] ^ symB[pi]
					}
					if act3 {
						if n3 < 56 {
							if y3+8 <= len(data) {
								b3 |= binary.BigEndian.Uint64(data[y3:]) >> uint(n3)
								y3 += (63 - n3) >> 3
								n3 |= 56
							} else {
								for y3 < len(data) && n3 <= 56 {
									b3 |= uint64(data[y3]) << uint(56-n3)
									n3 += 8
									y3++
								}
							}
						}
						e := root[b3>>uint(64-rb)&rootMask]
						if e&fastSubFlag != 0 {
							sb := int(e & fastLenMask)
							w := b3 >> uint(64-rb-sb)
							e = subt[int(e>>6&(fastMaxSyms-1))+int(w&(1<<uint(sb)-1))]
						}
						cl := int(e & fastLenMask)
						if cl == 0 || cl > n3 {
							return 0, 0, 0, false
						}
						b3 <<= uint(cl)
						n3 -= cl
						pi := e >> 6
						sk3 ^= symA[pi] ^ symB[pi]
					}
					r += 2
				}
			}
		} else {
			for r := 0; r < rounds; r++ {
				if act0 {
					if n0 < 56 {
						if y0+8 <= len(data) {
							b0 |= binary.BigEndian.Uint64(data[y0:]) >> uint(n0)
							y0 += (63 - n0) >> 3
							n0 |= 56
						} else {
							for y0 < len(data) && n0 <= 56 {
								b0 |= uint64(data[y0]) << uint(56-n0)
								n0 += 8
								y0++
							}
						}
					}
					rb := tabs[t0].rootBits
					root := tabs[t0].root
					e := root[b0>>uint(64-rb)&uint64(len(root)-1)]
					if e&fastSubFlag != 0 {
						sb := int(e & fastLenMask)
						w := b0 >> uint(64-rb-sb)
						e = tabs[t0].sub[int(e>>6&(fastMaxSyms-1))+int(w&(1<<uint(sb)-1))]
					}
					cl := int(e & fastLenMask)
					if cl == 0 || cl > n0 {
						return 0, 0, 0, false
					}
					b0 <<= uint(cl)
					n0 -= cl
					sym := tabs[t0].syms[e>>6]
					if oo0 != nil {
						oo0[r] = sym
					} else {
						sk0 ^= sym
					}
					if t0++; t0 == nt {
						t0 = 0
					}
				}
				if act1 {
					if n1 < 56 {
						if y1+8 <= len(data) {
							b1 |= binary.BigEndian.Uint64(data[y1:]) >> uint(n1)
							y1 += (63 - n1) >> 3
							n1 |= 56
						} else {
							for y1 < len(data) && n1 <= 56 {
								b1 |= uint64(data[y1]) << uint(56-n1)
								n1 += 8
								y1++
							}
						}
					}
					rb := tabs[t1].rootBits
					root := tabs[t1].root
					e := root[b1>>uint(64-rb)&uint64(len(root)-1)]
					if e&fastSubFlag != 0 {
						sb := int(e & fastLenMask)
						w := b1 >> uint(64-rb-sb)
						e = tabs[t1].sub[int(e>>6&(fastMaxSyms-1))+int(w&(1<<uint(sb)-1))]
					}
					cl := int(e & fastLenMask)
					if cl == 0 || cl > n1 {
						return 0, 0, 0, false
					}
					b1 <<= uint(cl)
					n1 -= cl
					sym := tabs[t1].syms[e>>6]
					if oo1 != nil {
						oo1[r] = sym
					} else {
						sk1 ^= sym
					}
					if t1++; t1 == nt {
						t1 = 0
					}
				}
				if act2 {
					if n2 < 56 {
						if y2+8 <= len(data) {
							b2 |= binary.BigEndian.Uint64(data[y2:]) >> uint(n2)
							y2 += (63 - n2) >> 3
							n2 |= 56
						} else {
							for y2 < len(data) && n2 <= 56 {
								b2 |= uint64(data[y2]) << uint(56-n2)
								n2 += 8
								y2++
							}
						}
					}
					rb := tabs[t2].rootBits
					root := tabs[t2].root
					e := root[b2>>uint(64-rb)&uint64(len(root)-1)]
					if e&fastSubFlag != 0 {
						sb := int(e & fastLenMask)
						w := b2 >> uint(64-rb-sb)
						e = tabs[t2].sub[int(e>>6&(fastMaxSyms-1))+int(w&(1<<uint(sb)-1))]
					}
					cl := int(e & fastLenMask)
					if cl == 0 || cl > n2 {
						return 0, 0, 0, false
					}
					b2 <<= uint(cl)
					n2 -= cl
					sym := tabs[t2].syms[e>>6]
					if oo2 != nil {
						oo2[r] = sym
					} else {
						sk2 ^= sym
					}
					if t2++; t2 == nt {
						t2 = 0
					}
				}
				if act3 {
					if n3 < 56 {
						if y3+8 <= len(data) {
							b3 |= binary.BigEndian.Uint64(data[y3:]) >> uint(n3)
							y3 += (63 - n3) >> 3
							n3 |= 56
						} else {
							for y3 < len(data) && n3 <= 56 {
								b3 |= uint64(data[y3]) << uint(56-n3)
								n3 += 8
								y3++
							}
						}
					}
					rb := tabs[t3].rootBits
					root := tabs[t3].root
					e := root[b3>>uint(64-rb)&uint64(len(root)-1)]
					if e&fastSubFlag != 0 {
						sb := int(e & fastLenMask)
						w := b3 >> uint(64-rb-sb)
						e = tabs[t3].sub[int(e>>6&(fastMaxSyms-1))+int(w&(1<<uint(sb)-1))]
					}
					cl := int(e & fastLenMask)
					if cl == 0 || cl > n3 {
						return 0, 0, 0, false
					}
					b3 <<= uint(cl)
					n3 -= cl
					sym := tabs[t3].syms[e>>6]
					if oo3 != nil {
						oo3[r] = sym
					} else {
						sk3 ^= sym
					}
					if t3++; t3 == nt {
						t3 = 0
					}
				}
			}
		}
		if act0 {
			m0 += rounds
		}
		if act1 {
			m1 += rounds
		}
		if act2 {
			m2 += rounds
		}
		if act3 {
			m3 += rounds
		}
	}
	return syms, bits, sk0 ^ sk1 ^ sk2 ^ sk3, true
}

// runWide is Run for schedules whose longest code exceeds the 56-bit
// cursor window (reachable only near MaxCodeLen; the compression
// schemes bound codes at isa.OpBits). Each lane decodes sequentially
// through a per-symbol reader sharing the decoder terminals, then the
// cursor is resynced to the reader's offset.
func (k *LaneDecoder) runWide(lanes []Lane) {
	for i := range lanes {
		l := &lanes[i]
		if l.Done() {
			continue
		}
		// A stack Reader value (MakeReader, not NewReader) keeps this
		// path from leaking the lane array to the heap: Run's callers
		// hold lanes in stack arrays and rely on Run never escaping them.
		r := bitio.MakeReader(l.cur.Source())
		if err := r.SeekBit(l.cur.Offset()); err != nil {
			l.err = err
			continue
		}
		for l.n < l.want {
			sym, err := k.sched[l.ti].Decode(&r)
			if err != nil {
				l.err = err
				break
			}
			if l.out != nil {
				l.out[l.n] = sym
			} else {
				l.sink ^= sym
			}
			l.n++
			l.ti++
			if l.ti == len(k.sched) {
				l.ti = 0
			}
		}
		// Resync the cursor so Offset stays truthful after terminals.
		// SeekBit, not Init: re-passing Source() through Init would leak
		// the callers' stack lane arrays to the heap (see Cursor.SeekBit).
		if err := l.cur.SeekBit(r.Offset()); err != nil {
			if l.err == nil {
				l.err = err
			}
		}
	}
}
