package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

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
// encoder's DecodeBlock — for the Huffman schemes, their lane kernel —
// and digests the result. Symbols is the sum of the blocks'
// BatchSymbols counts for schemes with a Huffman symbol stream and 0
// for the others (base, tailored).
func DecodeImage(im *image.Image, enc compress.Encoder) (DecodeSummary, error) {
	var sum DecodeSummary
	bd, hasSymbols := enc.(compress.BatchDecoder)
	r := bitio.NewReader(im.Data)
	h := sha256.New()
	var buf [8]byte
	for i := range im.Blocks {
		if err := r.SeekBit(im.Blocks[i].Addr * 8); err != nil {
			return sum, fmt.Errorf("seek block %d: %w", i, err)
		}
		ops, err := enc.DecodeBlock(r, im.Blocks[i].Ops)
		if err != nil {
			return sum, fmt.Errorf("decode block %d of %s/%s: %w", i, im.Name, im.Scheme, err)
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(len(ops)))
		h.Write(buf[:]) //tepic:ignore-err hash.Hash.Write never fails
		for j := range ops {
			binary.LittleEndian.PutUint64(buf[:], ops[j].Encode())
			h.Write(buf[:]) //tepic:ignore-err hash.Hash.Write never fails
		}
		sum.Ops += len(ops)
		if hasSymbols {
			sum.Symbols += int64(bd.BatchSymbols(len(ops)))
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
	var buf [8]byte
	for _, ops := range blocks {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(ops)))
		h.Write(buf[:]) //tepic:ignore-err hash.Hash.Write never fails
		for j := range ops {
			binary.LittleEndian.PutUint64(buf[:], ops[j].Encode())
			h.Write(buf[:]) //tepic:ignore-err hash.Hash.Write never fails
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
