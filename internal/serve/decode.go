package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"repro/internal/bitio"
	"repro/internal/compress"
	"repro/internal/image"
	"repro/internal/isa"
)

// DecodeSummary is the digest of one full image decode: operation
// count, Huffman symbols the decode consumed (0 for schemes without a
// symbol stream), and the content hash over every decoded operation
// word in image placement order. Two decode paths are bit-identical
// exactly when their OpsHash values match.
type DecodeSummary struct {
	Ops     int
	Symbols int64
	OpsHash string
}

// DecodeImage decodes every block of the image once through the
// encoder's DecodeWords — for the Huffman schemes, their lane kernel —
// and digests the checked op words it yields; no isa.Op is built.
// Symbols is the sum of the blocks' BatchSymbols counts for schemes
// with a Huffman symbol stream and 0 for the others (base, tailored).
func DecodeImage(im *image.Image, enc compress.Encoder) (DecodeSummary, error) {
	var sum DecodeSummary
	bd, hasSymbols := enc.(compress.BatchDecoder)
	r := bitio.NewReader(im.Data)
	h := sha256.New()
	var words []uint64
	var buf []byte
	for i := range im.Blocks {
		if err := r.SeekBit(im.Blocks[i].Addr * 8); err != nil {
			return sum, fmt.Errorf("seek block %d: %w", i, err)
		}
		var err error
		if words, err = enc.DecodeWords(r, im.Blocks[i].Ops, words[:0]); err != nil {
			return sum, fmt.Errorf("decode block %d of %s/%s: %w", i, im.Name, im.Scheme, err)
		}
		buf = hashBlock(h, buf, words)
		sum.Ops += len(words)
		if hasSymbols {
			sum.Symbols += int64(bd.BatchSymbols(len(words)))
		}
	}
	sum.OpsHash = hex.EncodeToString(h.Sum(nil))
	return sum, nil
}

// HashOps digests a program's operations block by block with the exact
// construction DecodeImage uses, so a direct (in-process) artifact path
// can be compared bit-for-bit against a daemon-served decode. blocks
// supplies each block's operations in image placement order.
func HashOps(blocks [][]isa.Op) string {
	h := sha256.New()
	var words []uint64
	var buf []byte
	for _, ops := range blocks {
		words = words[:0]
		for j := range ops {
			words = append(words, ops[j].Encode())
		}
		buf = hashBlock(h, buf, words)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashBlock feeds one block to h in a single Write: its op count, then
// each op word, all as little-endian uint64s. buf is scratch reused
// across blocks; hashBlock returns it, grown as needed.
func hashBlock(h hash.Hash, buf []byte, words []uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(words)))
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	h.Write(buf) //tepic:ignore-err hash.Hash.Write never fails
	return buf
}
